// CompiledModel: the immutable, thread-shareable product of the offline
// modeling pipeline (the ripped graph it was built from + decycled DAG +
// forest + TopologyCatalog + static prompt segments), built once per
// application build and shared read-only across every per-run DmiSession via
// shared_ptr (DESIGN.md §10).
//
// This is the amortization split: everything here is a pure function of the
// ripped NavGraph and the modeling options, so the suite harness compiles it
// once per AppKind and thin sessions attach in O(dynamic state).
#ifndef SRC_DMI_COMPILED_MODEL_H_
#define SRC_DMI_COMPILED_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/describe/catalog.h"
#include "src/dmi/interaction.h"
#include "src/ripper/delta.h"
#include "src/ripper/ripper.h"
#include "src/topology/nav_graph.h"
#include "src/topology/transform.h"

namespace dmi {

struct ModelingOptions {
  ripper::RipperConfig ripper_config;
  // Synthesize descriptions for undocumented controls before serialization
  // (§5.7 "Rich control descriptions"; rule-based, never overwrites app
  // metadata).
  bool augment_descriptions = false;
  std::vector<ripper::RipContext> contexts;
  uint64_t externalize_threshold = topo::kDefaultExternalizeThreshold;
  desc::PruneOptions prune;
  desc::DescribeOptions describe;
  InteractionConfig interaction;
};

struct ModelingStats {
  topo::GraphStats raw;
  size_t back_edges_removed = 0;
  size_t unreachable_dropped = 0;
  size_t forest_nodes = 0;
  size_t shared_subtrees = 0;
  size_t references = 0;
  size_t core_nodes = 0;
  size_t core_tokens = 0;
  size_t full_tokens = 0;
  ripper::RipStats rip;
};

// A target resolved from human-readable names to DMI's id language.
struct ResolvedTarget {
  int id = -1;
  std::vector<int> entry_ref_ids;
};

class CompiledModel {
 public:
  // Runs the full offline pipeline (augment → decycle → selective
  // externalization → catalog) over a ripped graph. This is the only way a
  // model is built: an in-process rip, an artifact load (model_artifact.h)
  // and a delta refresh (DESIGN.md §15) all end here. The model keeps the
  // graph as ripped(); augmentation works on a private copy. The result is
  // immutable and safe to share across threads: the catalog's lazy caches
  // are call_once-guarded on an immutable forest (DESIGN.md §9). `rip`
  // (optional) folds the ripper's counters into stats(). `checksums`
  // (optional) attaches the app's per-subtree structural checksum table
  // (ripper::ComputeSubtreeChecksums), which together with ripped() makes
  // the model a delta-rip baseline.
  static std::shared_ptr<const CompiledModel> Compile(
      topo::NavGraph graph, const ModelingOptions& options,
      const ripper::RipStats* rip = nullptr, const ripper::ChecksumTable* checksums = nullptr);

  // The graph the model was compiled from: what an artifact stores and the
  // baseline a delta rip splices.
  const topo::NavGraph& ripped() const { return ripped_; }
  const topo::NavGraph& dag() const { return *dag_; }
  const desc::TopologyCatalog& catalog() const { return *catalog_; }
  const ModelingStats& stats() const { return stats_; }
  // The options the model was compiled with; thin sessions default their
  // interaction config from here.
  const ModelingOptions& options() const { return options_; }
  size_t usage_hint_tokens() const { return usage_hint_tokens_; }

  // Per-subtree structural checksum table of the app build this model was
  // ripped from (empty for models compiled without one; a delta rip against
  // such a model falls back to a full rip). The delta ripper diffs a live
  // app against this.
  const ripper::ChecksumTable& subtree_checksums() const { return subtree_checksums_; }

  // The static prompt segment — usage hint + serialized core topology —
  // concatenated and token-counted once at compile time. Every session of
  // this model shares this single copy (DESIGN.md §12): per-session prompt
  // state is only the dynamic screen/data segment, so N concurrent sessions
  // of one app kind hold the static bytes exactly once.
  const std::string& static_prompt() const { return static_prompt_; }
  size_t static_prompt_tokens() const { return static_prompt_tokens_; }

  // Instruction header included in every prompt (counts toward DMI's token
  // overhead, §5.4).
  static const std::string& UsageHint();

  // Resolves an access chain given by human-readable names (an ordered
  // subsequence of the full chain ending at the target, e.g. {"Font Color",
  // "Blue"}): returns the target id plus the entry references needed. The
  // candidates are the non-reference nodes named names.back(), each with
  // every entry-reference chain that reaches it; of those whose resolved path
  // holds the names in order, the shortest path wins, and ties go to the
  // lowest id (then to the first entry-reference chain). kNotFound if none
  // matches, kInvalidArgument for an empty chain. The candidates come from a
  // name index built at compile time, so the cost grows with the number of
  // same-named nodes, not with the forest. Pure query on the immutable
  // forest/DAG — safe to call concurrently.
  support::Result<ResolvedTarget> ResolveTargetByNames(
      const std::vector<std::string>& names) const;

  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

 private:
  CompiledModel() = default;

  ModelingOptions options_;
  ModelingStats stats_;
  topo::NavGraph ripped_;
  // The catalog holds a raw pointer to the DAG, so the allocation must stay
  // put for the model's lifetime (hence unique_ptr, not a plain member).
  std::unique_ptr<topo::NavGraph> dag_;
  std::unique_ptr<desc::TopologyCatalog> catalog_;
  size_t usage_hint_tokens_ = 0;  // counted once at compile
  std::string static_prompt_;     // UsageHint() + catalog CoreText()
  size_t static_prompt_tokens_ = 0;
  ripper::ChecksumTable subtree_checksums_;
  // The forest's non-reference ids sorted by (DAG node name, id): the name
  // index ResolveTargetByNames searches with equal_range. Derived at compile
  // time, never stored in an artifact.
  std::vector<int> ids_by_name_;
};

}  // namespace dmi

#endif  // SRC_DMI_COMPILED_MODEL_H_
