// TopologyCatalog: the query-on-demand layer (paper §3.3).
//
// By default the LLM receives a *limited-depth core*: the forest pruned to a
// configurable depth, with large homogeneous enumerations (font lists, symbol
// grids) and manually-excluded nodes elided. When the core lacks required
// structure, the LLM issues further_query commands:
//   - targeted: expand the substructure beneath one node id;
//   - global (-1): retrieve the complete forest.
//
// The forest is immutable after construction, so every serialization and
// token count is computed at most once: FullText/FullTokens/CoreTokens and
// the per-shared-subtree serializations are lazy, thread-safe (std::call_once)
// caches whose hit/miss tallies land on the describe.* metrics (DESIGN.md §9).
#ifndef SRC_DESCRIBE_CATALOG_H_
#define SRC_DESCRIBE_CATALOG_H_

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/describe/serialize.h"
#include "src/support/status.h"
#include "src/topology/nav_graph.h"
#include "src/topology/transform.h"

namespace desc {

struct PruneOptions {
  // Depth of the default core (root = depth 0); §3.3 suggests ~six levels.
  int max_depth = 8;
  // A node with more than this many children, ≥90% of one type, is treated
  // as a large enumeration: children elided from the core.
  size_t enumeration_limit = 40;
  // Manually identified nodes whose subtrees are excluded from the core.
  std::set<std::string> manual_exclude_names;
};

struct CoreStats {
  size_t kept = 0;
  size_t elided = 0;
  size_t elided_enumerations = 0;  // distinct enumerations collapsed
};

class TopologyCatalog {
 public:
  TopologyCatalog(const topo::NavGraph* dag, topo::Forest forest, PruneOptions prune,
                  DescribeOptions describe);

  const topo::Forest& forest() const { return forest_; }
  const topo::NavGraph& dag() const { return *dag_; }

  // Serialized pruned core (what every LLM call carries by default).
  const std::string& CoreText() const { return core_text_; }
  size_t CoreTokens() const;

  // Serialized complete forest (further_query -1). Cached after the first
  // call; byte-identical to SerializeForest(dag(), forest(), describe, nullptr).
  const std::string& FullText() const;
  size_t FullTokens() const;

  // Memoized serialization of one shared subtree (no pruning); shared by
  // FullText and ExpandBranch. Errors are impossible: callers index by a
  // valid subtree id.
  const std::string& SubtreeText(int subtree) const;

  // Targeted branch query: the full substructure beneath `id` (further_query
  // with a node id). Errors on unknown ids.
  support::Result<std::string> ExpandBranch(int id) const;

  // Whether the id is part of the default core.
  bool InCore(int id) const { return core_ids_.contains(id); }

  const CoreStats& core_stats() const { return core_stats_; }

 private:
  void ComputeCore(const PruneOptions& prune);

  const topo::NavGraph* dag_;
  topo::Forest forest_;
  DescribeOptions describe_;
  IdSet core_ids_;
  CoreStats core_stats_;
  std::string core_text_;

  // Lazy, thread-safe caches (the forest is immutable after construction).
  mutable std::once_flag full_text_once_;
  mutable std::string full_text_;
  mutable std::once_flag full_tokens_once_;
  mutable size_t full_tokens_ = 0;
  mutable std::once_flag core_tokens_once_;
  mutable size_t core_tokens_ = 0;
  mutable std::unique_ptr<std::once_flag[]> subtree_once_;
  mutable std::vector<std::string> subtree_text_;
};

}  // namespace desc

#endif  // SRC_DESCRIBE_CATALOG_H_
