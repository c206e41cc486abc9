#include "src/topology/transform.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "src/support/strings.h"

namespace topo {
namespace {

// Iterative DFS from the root, recording which nodes it reaches and the order
// in which they finish. A back-edge (an edge to a node on the current stack)
// is exactly an edge whose target finishes no earlier than its source: its
// target is an ancestor. Every other edge of a reached node points at a node
// that finished first, so the post-order lists each node after all of its
// successors in the DAG that Decycle keeps.
struct DfsClassification {
  std::vector<bool> reachable;
  std::vector<int> post_order;
  std::vector<int> finish;  // position in post_order; -1 if unreachable

  // Whether Decycle keeps the edge from -> to of a reached node.
  bool Keeps(int from, int to) const {
    return finish[static_cast<size_t>(to)] < finish[static_cast<size_t>(from)];
  }
};

DfsClassification ClassifyEdges(const NavGraph& graph) {
  const size_t n = graph.node_count();
  DfsClassification out;
  out.reachable.assign(n, false);
  out.finish.assign(n, -1);
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(n, Color::kWhite);
  // Explicit stack of (node, next-successor-index).
  std::vector<std::pair<int, size_t>> stack;
  stack.emplace_back(NavGraph::kRootIndex, 0);
  color[NavGraph::kRootIndex] = Color::kGray;
  out.reachable[NavGraph::kRootIndex] = true;
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    const auto& succ = graph.successors(node);
    if (next >= succ.size()) {
      color[static_cast<size_t>(node)] = Color::kBlack;
      out.finish[static_cast<size_t>(node)] = static_cast<int>(out.post_order.size());
      out.post_order.push_back(node);
      stack.pop_back();
      continue;
    }
    const int to = succ[next++];
    if (color[static_cast<size_t>(to)] == Color::kWhite) {
      color[static_cast<size_t>(to)] = Color::kGray;
      out.reachable[static_cast<size_t>(to)] = true;
      stack.emplace_back(to, 0);
    }
  }
  return out;
}

// Topological order of a DAG (root first). Assumes acyclic input.
std::vector<int> TopoOrder(const NavGraph& dag) {
  std::vector<int> indeg = dag.InDegrees();
  std::vector<int> order;
  order.reserve(dag.node_count());
  std::vector<int> ready;
  for (size_t i = 0; i < dag.node_count(); ++i) {
    if (indeg[i] == 0) {
      ready.push_back(static_cast<int>(i));
    }
  }
  while (!ready.empty()) {
    int n = ready.back();
    ready.pop_back();
    order.push_back(n);
    for (int to : dag.successors(n)) {
      if (--indeg[static_cast<size_t>(to)] == 0) {
        ready.push_back(to);
      }
    }
  }
  assert(order.size() == dag.node_count() && "TopoOrder called on cyclic graph");
  return order;
}

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return a > kCloneCountSaturated - b ? kCloneCountSaturated : a + b;
}

// Pass 1 of the selective externalization, over the DAG made of `graph`'s
// edges that `keeps` accepts: `bottom_up` lists its nodes, each after all of
// its successors, and `indeg` holds their in-degrees in it. Decides which
// merge nodes become shared subtrees and computes each node's *effective*
// subtree size (externalized children count as a single reference node) and
// height (the longest path down, in edges).
struct Externalization {
  std::vector<bool> externalized;
  std::vector<uint64_t> eff_size;
  std::vector<int> height;
};

template <typename Keeps>
Externalization PlanExternalization(const NavGraph& graph, const std::vector<int>& bottom_up,
                                    const std::vector<int>& indeg, uint64_t cost_threshold,
                                    const Keeps& keeps) {
  const size_t n = graph.node_count();
  Externalization plan;
  plan.externalized.assign(n, false);
  plan.eff_size.assign(n, 0);
  plan.height.assign(n, 0);
  for (int node : bottom_up) {
    const size_t u = static_cast<size_t>(node);
    uint64_t size = 1;
    for (int to : graph.successors(node)) {
      if (!keeps(node, to)) {
        continue;
      }
      const size_t v = static_cast<size_t>(to);
      // An externalized child is a single reference node; any other is cloned.
      size = SaturatingAdd(size, plan.externalized[v] ? 1 : plan.eff_size[v]);
      plan.height[u] = std::max(plan.height[u], plan.height[v] + 1);
    }
    plan.eff_size[u] = size;
    const int d = indeg[u];
    if (d > 1) {
      const uint64_t clone_cost = static_cast<uint64_t>(d - 1) * size;
      if (clone_cost > cost_threshold) {
        plan.externalized[u] = true;
      }
    }
  }
  return plan;
}

}  // namespace

DecycleResult Decycle(const NavGraph& graph) {
  const DfsClassification cls = ClassifyEdges(graph);
  DecycleResult result;
  // Re-add reachable nodes (order-preserving), then non-back edges.
  std::vector<int> remap(graph.node_count(), -1);
  remap[NavGraph::kRootIndex] = NavGraph::kRootIndex;
  for (size_t i = 1; i < graph.node_count(); ++i) {
    if (cls.reachable[i]) {
      remap[i] = result.dag.AddNode(graph.node(static_cast<int>(i)));
    } else {
      ++result.unreachable_dropped;
    }
  }
  // A reached node's successors are all reached.
  for (size_t from = 0; from < graph.node_count(); ++from) {
    if (!cls.reachable[from]) {
      continue;
    }
    for (int to : graph.successors(static_cast<int>(from))) {
      if (!cls.Keeps(static_cast<int>(from), to)) {
        ++result.removed_back_edges;
        continue;
      }
      result.dag.AddEdge(remap[from], remap[static_cast<size_t>(to)]);
    }
  }
  return result;
}

ForestShape MeasureForest(const NavGraph& graph, uint64_t cost_threshold) {
  // Measured on `graph` itself, through the DFS Decycle runs, so nothing is
  // copied: the post-order lists every node after its kept successors.
  const DfsClassification cls = ClassifyEdges(graph);
  const auto keeps = [&cls](int from, int to) { return cls.Keeps(from, to); };
  std::vector<int> indeg(graph.node_count(), 0);
  for (int node : cls.post_order) {
    for (int to : graph.successors(node)) {
      if (keeps(node, to)) {
        ++indeg[static_cast<size_t>(to)];
      }
    }
  }
  const Externalization plan =
      PlanExternalization(graph, cls.post_order, indeg, cost_threshold, keeps);
  // The main tree is the root's effective subtree; each shared subtree is
  // its externalized root's.
  ForestShape shape;
  shape.nodes = plan.eff_size[NavGraph::kRootIndex];
  for (int node : cls.post_order) {
    if (plan.externalized[static_cast<size_t>(node)]) {
      shape.nodes = SaturatingAdd(shape.nodes, plan.eff_size[static_cast<size_t>(node)]);
    }
  }
  shape.longest_root_path = plan.height[NavGraph::kRootIndex];
  return shape;
}

uint64_t NaiveCloneCount(const NavGraph& dag) {
  // f(n) = 1 + sum f(child): the number of nodes in the full expansion of the
  // subtree rooted at n when every DAG diamond is duplicated.
  const std::vector<int> order = TopoOrder(dag);
  std::vector<uint64_t> f(dag.node_count(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    uint64_t total = 1;
    for (int to : dag.successors(*it)) {
      total = SaturatingAdd(total, f[static_cast<size_t>(to)]);
    }
    f[static_cast<size_t>(*it)] = total;
  }
  return f[NavGraph::kRootIndex];
}

Forest SelectiveExternalize(const NavGraph& dag, uint64_t cost_threshold) {
  const std::vector<int> order = TopoOrder(dag);
  const Externalization plan =
      PlanExternalization(dag, std::vector<int>(order.rbegin(), order.rend()), dag.InDegrees(),
                          cost_threshold, [](int, int) { return true; });
  const std::vector<bool>& externalized = plan.externalized;
  const size_t n = dag.node_count();

  // Shared-subtree index per externalized node, in topological order so the
  // serialized output is stable.
  Forest forest;
  std::vector<int> subtree_index(n, -1);
  for (int node : order) {
    if (externalized[static_cast<size_t>(node)]) {
      subtree_index[static_cast<size_t>(node)] = static_cast<int>(forest.shared_.size());
      forest.shared_.emplace_back();
    }
  }

  // Pass 2: materialize trees. Cloning is a DFS that duplicates non-
  // externalized children and emits reference nodes for externalized ones.
  // The DFS keeps its own stack (a chain as deep as the graph is long must
  // not overflow the call stack); ids are handed out in pre-order, a
  // reference taking its id where its edge is met.
  struct Frame {
    int graph_node;
    int index;        // the node's slot in its tree
    size_t next = 0;  // the next successor to visit
  };
  int next_id = 1;
  std::vector<Frame> stack;
  auto emit = [&](Tree& tree, int root) {
    auto open = [&](int graph_node, int parent) {
      const int index = static_cast<int>(tree.nodes.size());
      TreeNode tn;
      tn.graph_index = graph_node;
      tn.id = next_id++;
      tn.parent = parent;
      tree.nodes.push_back(tn);
      if (parent >= 0) {
        tree.nodes[static_cast<size_t>(parent)].children.push_back(index);
      }
      stack.push_back(Frame{graph_node, index});
    };
    open(root, -1);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const std::vector<int>& successors = dag.successors(frame.graph_node);
      if (frame.next == successors.size()) {
        stack.pop_back();
        continue;
      }
      const int to = successors[frame.next++];
      const int parent = frame.index;  // `frame` dangles once open() pushes
      if (externalized[static_cast<size_t>(to)]) {
        const int ref_index = static_cast<int>(tree.nodes.size());
        TreeNode ref;
        ref.graph_index = to;  // resolves to the shared subtree's root control
        ref.id = next_id++;
        ref.parent = parent;
        ref.is_reference = true;
        ref.ref_subtree = subtree_index[static_cast<size_t>(to)];
        tree.nodes.push_back(ref);
        tree.nodes[static_cast<size_t>(parent)].children.push_back(ref_index);
      } else {
        open(to, parent);
      }
    }
  };

  emit(forest.main_, NavGraph::kRootIndex);
  for (int node : order) {
    if (externalized[static_cast<size_t>(node)]) {
      Tree& tree = forest.shared_[static_cast<size_t>(subtree_index[static_cast<size_t>(node)])];
      emit(tree, node);
    }
  }

  // Index ids (ids are consecutive from 1: a dense vector keyed by id) and
  // build the reverse-reference index in the same scan.
  forest.max_id_ = next_id - 1;
  forest.loc_by_id_.assign(static_cast<size_t>(forest.max_id_) + 1, ForestLocation{-1, -1});
  forest.refs_by_subtree_.resize(forest.shared_.size());
  auto index_tree = [&forest](const Tree& tree, int tree_idx) {
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      const TreeNode& node = tree.nodes[i];
      forest.loc_by_id_[static_cast<size_t>(node.id)] =
          ForestLocation{tree_idx, static_cast<int>(i)};
      if (node.is_reference) {
        forest.all_refs_.push_back(ReferenceEntry{node.id, node.ref_subtree});
        forest.refs_by_subtree_[static_cast<size_t>(node.ref_subtree)].push_back(node.id);
      }
    }
  };
  index_tree(forest.main_, -1);
  for (size_t s = 0; s < forest.shared_.size(); ++s) {
    index_tree(forest.shared_[s], static_cast<int>(s));
  }
  return forest;
}

size_t Forest::total_nodes() const {
  size_t total = main_.nodes.size();
  for (const Tree& t : shared_) {
    total += t.nodes.size();
  }
  return total;
}

const std::vector<int>& Forest::RefsTo(int subtree) const {
  static const std::vector<int> kEmpty;
  if (subtree < 0 || subtree >= static_cast<int>(refs_by_subtree_.size())) {
    return kEmpty;
  }
  return refs_by_subtree_[static_cast<size_t>(subtree)];
}

const TreeNode* Forest::NodeAt(ForestLocation loc) const {
  const Tree& tree = loc.tree < 0 ? main_ : shared_[static_cast<size_t>(loc.tree)];
  if (loc.node < 0 || loc.node >= static_cast<int>(tree.nodes.size())) {
    return nullptr;
  }
  return &tree.nodes[static_cast<size_t>(loc.node)];
}

support::Result<ForestLocation> Forest::LocateById(int id) const {
  if (id <= 0 || id >= static_cast<int>(loc_by_id_.size()) ||
      loc_by_id_[static_cast<size_t>(id)].node < 0) {
    return support::NotFoundError(
        support::Format("no control with id %d in the navigation topology", id));
  }
  return loc_by_id_[static_cast<size_t>(id)];
}

const TreeNode* Forest::FindById(int id) const {
  if (id <= 0 || id >= static_cast<int>(loc_by_id_.size()) ||
      loc_by_id_[static_cast<size_t>(id)].node < 0) {
    return nullptr;
  }
  return NodeAt(loc_by_id_[static_cast<size_t>(id)]);
}

bool Forest::IsLeaf(int id) const {
  const TreeNode* node = FindById(id);
  return node != nullptr && !node->is_reference && node->children.empty();
}

int Forest::DepthOf(int id) const {
  auto loc = LocateById(id);
  if (!loc.ok()) {
    return -1;
  }
  const Tree& tree = loc->tree < 0 ? main_ : shared_[static_cast<size_t>(loc->tree)];
  int depth = 0;
  int cursor = loc->node;
  while (tree.nodes[static_cast<size_t>(cursor)].parent >= 0) {
    cursor = tree.nodes[static_cast<size_t>(cursor)].parent;
    ++depth;
  }
  return depth;
}

std::vector<int> Forest::AllIds() const {
  std::vector<int> ids;
  ids.reserve(loc_by_id_.size());
  for (size_t id = 1; id < loc_by_id_.size(); ++id) {
    if (loc_by_id_[id].node >= 0) {
      ids.push_back(static_cast<int>(id));
    }
  }
  return ids;
}

support::Result<std::vector<int>> Forest::ResolvePath(
    int target_id, const std::vector<int>& entry_ref_ids) const {
  auto target_loc = LocateById(target_id);
  if (!target_loc.ok()) {
    return target_loc.status();
  }
  const TreeNode* target = NodeAt(*target_loc);
  if (target->is_reference) {
    return support::InvalidArgumentError(
        support::Format("id %d is a reference node, not a control; declare the target "
                        "inside the shared subtree instead", target_id));
  }

  // Path within the target's own tree, root..target (graph indices).
  auto path_in_tree = [this](ForestLocation loc) {
    const Tree& tree = loc.tree < 0 ? main_ : shared_[static_cast<size_t>(loc.tree)];
    std::vector<int> chain;
    int cursor = loc.node;
    while (cursor >= 0) {
      chain.push_back(tree.nodes[static_cast<size_t>(cursor)].graph_index);
      cursor = tree.nodes[static_cast<size_t>(cursor)].parent;
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
  };

  std::vector<int> path = path_in_tree(*target_loc);

  // Climb out of shared subtrees via the provided entry references. Several
  // provided refs can point at the same subtree (with different viability),
  // so this is a small backtracking search over the provided set.
  std::function<bool(int, std::vector<bool>&, std::vector<int>&)> climb =
      [&](int current_tree, std::vector<bool>& used, std::vector<int>& prefix_out) {
        if (current_tree < 0) {
          return true;  // reached the main tree
        }
        for (size_t i = 0; i < entry_ref_ids.size(); ++i) {
          if (used[i]) {
            continue;
          }
          const TreeNode* ref = FindById(entry_ref_ids[i]);
          if (ref == nullptr || !ref->is_reference || ref->ref_subtree != current_tree) {
            continue;
          }
          auto ref_loc = LocateById(entry_ref_ids[i]);
          if (!ref_loc.ok()) {
            continue;
          }
          used[i] = true;
          // Path to the reference node's parent (the host control); the
          // reference duplicates the subtree root already present in `path`.
          std::vector<int> hop = path_in_tree(*ref_loc);
          hop.pop_back();
          std::vector<int> upper;
          if (climb(ref_loc->tree, used, upper)) {
            prefix_out = std::move(upper);
            prefix_out.insert(prefix_out.end(), hop.begin(), hop.end());
            return true;
          }
          used[i] = false;
        }
        return false;
      };

  if (target_loc->tree >= 0) {
    std::vector<bool> used(entry_ref_ids.size(), false);
    std::vector<int> prefix;
    if (!climb(target_loc->tree, used, prefix)) {
      return support::FailedPreconditionError(support::Format(
          "target id %d lives in shared subtree %d; provide its entry_ref_id chain "
          "(reference nodes leading to that subtree)", target_id, target_loc->tree));
    }
    path.insert(path.begin(), prefix.begin(), prefix.end());
  }

  // Drop the virtual root at the front.
  if (!path.empty() && path.front() == NavGraph::kRootIndex) {
    path.erase(path.begin());
  }
  return path;
}

}  // namespace topo
