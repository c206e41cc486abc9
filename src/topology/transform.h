// Graph -> DAG -> path-unambiguous forest (paper §3.2).
//
// Two transformations:
//  1. Decycle: remove DFS back-edges from the single-source UNG, yielding a
//     single-source DAG.
//  2. Path disambiguation: turn the DAG into a *forest* — a main tree plus
//     shared subtrees. A naive approach clones every merge node's substructure
//     along each in-edge (exponential blow-up); the paper's cost-based
//     selective externalization instead externalizes a merge node as a shared
//     subtree when its cloning cost exceeds a threshold, redirecting in-edges
//     to new *reference nodes*. The LLM then declares a target id plus
//     (typically one) entry reference id; the executor resolves a unique
//     root-to-target navigation path.
#ifndef SRC_TOPOLOGY_TRANSFORM_H_
#define SRC_TOPOLOGY_TRANSFORM_H_

#include <cstdint>
#include <vector>

#include "src/support/status.h"
#include "src/topology/nav_graph.h"

namespace topo {

struct DecycleResult {
  NavGraph dag;
  size_t removed_back_edges = 0;
  size_t unreachable_dropped = 0;
};

// Removes back-edges found by DFS from the root; drops nodes unreachable
// from the root. Preserves node indices/ids of reachable nodes.
DecycleResult Decycle(const NavGraph& graph);


// Size of the naive full-clone tree (every merge node duplicated along all
// in-edges), computed without materializing. Saturates at kSaturated.
inline constexpr uint64_t kCloneCountSaturated = UINT64_MAX;
uint64_t NaiveCloneCount(const NavGraph& dag);

// One node of an output tree.
struct TreeNode {
  int graph_index = -1;   // original DAG node; -1 for reference nodes
  int id = 0;             // unique consecutive id across the whole forest
  int parent = -1;        // index within the owning tree's node vector
  std::vector<int> children;
  bool is_reference = false;
  int ref_subtree = -1;   // shared-subtree index this reference points at
};

struct Tree {
  std::vector<TreeNode> nodes;  // nodes[0] is the tree root
};

// Where a forest id lives: tree < 0 means the main tree, otherwise the index
// of a shared subtree.
struct ForestLocation {
  int tree = -1;
  int node = -1;
};

// One reference node and the shared subtree it points at, in forest scan
// order (main tree first, then shared subtrees, node order within a tree).
struct ReferenceEntry {
  int ref_id = 0;
  int subtree = -1;
};

class Forest {
 public:
  const Tree& main() const { return main_; }
  const std::vector<Tree>& shared() const { return shared_; }

  // Total nodes across main + shared trees (reference nodes included).
  size_t total_nodes() const;
  size_t reference_count() const { return all_refs_.size(); }

  // Lookup by assigned id; nullptr if unknown. Ids are consecutive from 1, so
  // these are O(1) dense-vector probes, not map lookups.
  const TreeNode* FindById(int id) const;
  const TreeNode* NodeAt(ForestLocation loc) const;
  support::Result<ForestLocation> LocateById(int id) const;

  // ----- reverse-reference index ---------------------------------------------
  // Precomputed at SelectiveExternalize time (the forest is immutable after
  // construction), replacing the per-query full-forest scans previously done
  // by the entry-map serializer and name-chain resolution.
  //
  // Every reference node, in forest scan order.
  const std::vector<ReferenceEntry>& AllReferences() const { return all_refs_; }
  // Ids of the reference nodes pointing directly at shared subtree `subtree`,
  // in forest scan order; empty for out-of-range indices.
  const std::vector<int>& RefsTo(int subtree) const;

  // True if the node with this id has no children (functional endpoint).
  // Reference nodes are not leaves.
  bool IsLeaf(int id) const;

  // Resolves the unique root-to-target navigation path for `target_id`,
  // returning original-graph node indices from (excluding) the virtual root
  // down to the target. Targets inside shared subtrees need entry reference
  // ids (outermost first); missing/wrong refs produce structured errors the
  // LLM can act on (paper §3.4 "structured error feedback").
  support::Result<std::vector<int>> ResolvePath(int target_id,
                                                const std::vector<int>& entry_ref_ids) const;

  // All assigned ids, ascending.
  std::vector<int> AllIds() const;
  int max_id() const { return max_id_; }

  // Depth of a node within its tree (root = 0).
  int DepthOf(int id) const;

 private:
  friend Forest SelectiveExternalize(const NavGraph& dag, uint64_t cost_threshold);

  Tree main_;
  std::vector<Tree> shared_;
  // Dense id -> location table (ids are consecutive from 1; slot 0 unused).
  std::vector<ForestLocation> loc_by_id_;
  std::vector<ReferenceEntry> all_refs_;
  std::vector<std::vector<int>> refs_by_subtree_;
  int max_id_ = 0;
};

// The forest SelectiveExternalize(Decycle(graph).dag, cost_threshold) builds,
// measured without building it or the DAG: its node count (saturating at
// kCloneCountSaturated) and the longest root path of the DAG, which is the
// deepest the later stages (forest cloning, serialization, core pruning)
// recurse. Iterative and O(graph), however deep the graph or large the
// forest — the artifact reader bounds both before it compiles untrusted
// bytes.
struct ForestShape {
  uint64_t nodes = 0;
  int longest_root_path = 0;
};
ForestShape MeasureForest(const NavGraph& graph, uint64_t cost_threshold);

// The paper's cost-based selective externalization. Processes merge nodes in
// reverse topological order; a node whose cloning cost
// (indegree - 1) * subtree_size exceeds `cost_threshold` becomes a shared
// subtree with reference nodes at each former in-edge. Threshold 0
// externalizes every merge node; a huge threshold reproduces naive cloning.
Forest SelectiveExternalize(const NavGraph& dag, uint64_t cost_threshold);

inline constexpr uint64_t kDefaultExternalizeThreshold = 24;

}  // namespace topo

#endif  // SRC_TOPOLOGY_TRANSFORM_H_
