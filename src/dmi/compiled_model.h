// CompiledModel: the immutable, thread-shareable product of the offline
// modeling pipeline (decycled DAG + forest + TopologyCatalog + static prompt
// segments), built once per application build and shared read-only across
// every per-run DmiSession via shared_ptr (DESIGN.md §10).
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
  // externalization → catalog) over a pre-ripped graph. The input graph is
  // read-only; a private copy is made only when augmentation must mutate it.
  // The result is immutable and safe to share across threads: the catalog's
  // lazy caches are call_once-guarded on an immutable forest (DESIGN.md §9).
  // `rip` (optional) folds the ripper's counters into stats(), making the
  // model a self-contained record for artifact persistence. `checksums`
  // (optional) attaches the app's per-subtree structural checksum table
  // (ripper::ComputeSubtreeChecksums) so the saved artifact can serve as a
  // delta-rip baseline (DESIGN.md §15).
  static std::shared_ptr<const CompiledModel> Compile(
      const topo::NavGraph& graph, const ModelingOptions& options,
      const ripper::RipStats* rip = nullptr, const ripper::ChecksumTable* checksums = nullptr);

  // Delta-aware recompile counters (observability; also mirrored onto the
  // model.recompile_* metrics).
  struct RecompileCounters {
    size_t subtrees_total = 0;
    size_t subtrees_reused = 0;  // memoized serializations carried over
  };

  // Incremental recompile over a DeltaRip graph (DESIGN.md §15): runs the
  // same pure pipeline as Compile, but carries the baseline catalog's
  // memoized shared-subtree serializations over wherever the new forest's
  // subtree is structurally identical (same ids, same shape, same node
  // content — node-count-preserving mutations keep ids stable, so renames
  // reuse every untouched subtree; splices that shift ids fall back to
  // recomputing, which exact comparison detects). `options` must equal the
  // baseline's modeling options or the carried strings would lie. The result
  // is byte-identical to Compile() over the same graph — only the cost
  // differs.
  static std::shared_ptr<const CompiledModel> RecompileDelta(
      const CompiledModel& baseline, const topo::NavGraph& graph,
      const ModelingOptions& options, const ripper::RipStats* rip,
      const ripper::ChecksumTable* checksums, RecompileCounters* counters = nullptr);

  // Fully materialized parts adopted by the binary-artifact loader
  // (model_artifact.cc, DESIGN.md §14). `catalog` must already point at
  // `dag` — FromLoadedParts re-runs no pipeline stage.
  struct LoadedParts {
    ModelingOptions options;
    ModelingStats stats;
    std::unique_ptr<topo::NavGraph> dag;
    std::unique_ptr<desc::TopologyCatalog> catalog;
    size_t usage_hint_tokens = 0;
    std::string static_prompt;
    size_t static_prompt_tokens = 0;
    ripper::ChecksumTable subtree_checksums;
  };
  static std::shared_ptr<const CompiledModel> FromLoadedParts(LoadedParts parts);

  const topo::NavGraph& dag() const { return *dag_; }
  const desc::TopologyCatalog& catalog() const { return *catalog_; }
  const ModelingStats& stats() const { return stats_; }
  // The options the model was compiled with; thin sessions default their
  // interaction config from here.
  const ModelingOptions& options() const { return options_; }
  size_t usage_hint_tokens() const { return usage_hint_tokens_; }

  // Per-subtree structural checksum table of the app build this model was
  // ripped from (empty for models compiled without one; the artifact then
  // carries no checksum table). The delta ripper diffs a live app against
  // this.
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

  // Resolves an access chain given by human-readable names (a suffix of the
  // full chain, e.g. {"Font Color", "Blue"}): returns the target id plus the
  // entry references needed. Errors if no unique-enough match exists. Pure
  // query on the immutable forest/DAG — safe to call concurrently.
  support::Result<ResolvedTarget> ResolveTargetByNames(
      const std::vector<std::string>& names) const;

  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

 private:
  CompiledModel() = default;

  ModelingOptions options_;
  ModelingStats stats_;
  // The catalog holds a raw pointer to the DAG, so the allocation must stay
  // put for the model's lifetime (hence unique_ptr, not a plain member).
  std::unique_ptr<topo::NavGraph> dag_;
  std::unique_ptr<desc::TopologyCatalog> catalog_;
  size_t usage_hint_tokens_ = 0;  // counted once at compile
  std::string static_prompt_;     // UsageHint() + catalog CoreText()
  size_t static_prompt_tokens_ = 0;
  ripper::ChecksumTable subtree_checksums_;
};

}  // namespace dmi

#endif  // SRC_DMI_COMPILED_MODEL_H_
