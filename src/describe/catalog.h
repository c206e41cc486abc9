// TopologyCatalog: the query-on-demand layer (paper §3.3).
//
// By default the LLM receives a *limited-depth core*: the forest pruned to a
// configurable depth, with large homogeneous enumerations (font lists, symbol
// grids) and manually-excluded nodes elided. When the core lacks required
// structure, the LLM issues further_query commands:
//   - targeted: expand the substructure beneath one node id;
//   - global (-1): retrieve the complete forest.
//
// The catalog is an immutable value: it owns the decycled DAG and its forest,
// and its constructor computes the core and full texts and their token
// counts once, so every accessor is a plain getter and concurrent readers
// need no synchronization (DESIGN.md §9).
#ifndef SRC_DESCRIBE_CATALOG_H_
#define SRC_DESCRIBE_CATALOG_H_

#include <set>
#include <string>

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
  // `forest` must be SelectiveExternalize of `dag`: its graph indices point
  // into it.
  TopologyCatalog(topo::NavGraph dag, topo::Forest forest, const PruneOptions& prune,
                  DescribeOptions describe);

  const topo::Forest& forest() const { return forest_; }
  const topo::NavGraph& dag() const { return dag_; }

  // Serialized pruned core (what every LLM call carries by default).
  const std::string& CoreText() const { return core_text_; }
  size_t CoreTokens() const { return core_tokens_; }

  // Serialized complete forest (further_query -1):
  // SerializeForest(dag(), forest(), describe).
  const std::string& FullText() const { return full_text_; }
  size_t FullTokens() const { return full_tokens_; }

  // Targeted branch query: the full substructure beneath `id` (further_query
  // with a node id), serialized on request; a reference expands to the shared
  // subtree it points at. Errors on unknown ids.
  support::Result<std::string> ExpandBranch(int id) const;

  // Whether the id is part of the default core.
  bool InCore(int id) const { return core_ids_.contains(id); }

  const CoreStats& core_stats() const { return core_stats_; }

 private:
  void ComputeCore(const PruneOptions& prune);

  topo::NavGraph dag_;
  topo::Forest forest_;
  DescribeOptions describe_;
  IdSet core_ids_;
  CoreStats core_stats_;
  std::string core_text_;
  size_t core_tokens_ = 0;
  std::string full_text_;
  size_t full_tokens_ = 0;
};

}  // namespace desc

#endif  // SRC_DESCRIBE_CATALOG_H_
