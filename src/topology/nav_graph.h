// The UI Navigation Graph (UNG) — paper §3.2.
//
// A directed graph G = (V, E): nodes are UI controls discovered by the ripper
// (identified by XPath-like control ids), edges capture click-induced
// reachability. Node 0 is always the virtual root (§4.1 "Root node
// initialization"); every other node is reachable from it.
#ifndef SRC_TOPOLOGY_NAV_GRAPH_H_
#define SRC_TOPOLOGY_NAV_GRAPH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/json/json.h"
#include "src/uia/control_type.h"

namespace topo {

struct NodeInfo {
  // XPath-like identifier: primary_id|control_type|ancestor_path (§4.1).
  // Unique key within the graph.
  std::string control_id;
  std::string name;
  uia::ControlType type = uia::ControlType::kCustom;
  std::string description;   // UIA help text, if any
  std::string automation_id;
};

struct GraphStats {
  size_t nodes = 0;
  size_t edges = 0;
  size_t merge_nodes = 0;   // nodes with in-degree > 1
  size_t back_edges = 0;    // edges removed by decycling (on the DAG: 0)
  int max_depth = 0;        // longest shortest-path from the root
};

class NavGraph {
 public:
  static constexpr int kRootIndex = 0;

  // Creates a graph containing only the virtual root.
  NavGraph();

  // Adds a node (deduplicated by control_id); returns its index.
  int AddNode(const NodeInfo& info);

  // Index of the node with this control id, or -1.
  int FindNode(const std::string& control_id) const;

  // Adds edge from->to (deduplicated, self-loops dropped).
  void AddEdge(int from, int to);

  size_t node_count() const { return nodes_.size(); }
  size_t edge_count() const;

  const NodeInfo& node(int index) const { return nodes_[static_cast<size_t>(index)]; }
  // Mutable access for post-processing passes (description augmentation).
  NodeInfo& mutable_node(int index) { return nodes_[static_cast<size_t>(index)]; }
  const std::vector<int>& successors(int index) const {
    return adjacency_[static_cast<size_t>(index)];
  }

  // In-degrees for all nodes (index-aligned).
  std::vector<int> InDegrees() const;

  // Nodes reachable from the root.
  std::vector<bool> Reachable() const;

  GraphStats ComputeStats() const;

  // Adds every node and edge of `other` into this graph (deduplicated by
  // control_id; edge endpoints remapped). Used to combine per-context rips.
  void MergeFrom(const NavGraph& other);

  // A copy with a canonical layout: the root stays at index 0, all other
  // nodes are ordered by control_id, and each adjacency list is sorted.
  // Graphs built from the same node/edge *sets* in any insertion order
  // canonicalize to identical objects, which is what makes serial and
  // parallel multi-context rips comparable bit-for-bit.
  NavGraph Canonicalized() const;

  // Debug/test dump of the raw graph (the ripper tests compare it byte for
  // byte). Models persist as `.dmim` artifacts, never as this JSON.
  jsonv::Value ToJson() const;

 private:
  std::vector<NodeInfo> nodes_;
  std::vector<std::vector<int>> adjacency_;
  std::unordered_map<std::string, int> index_by_id_;
};

}  // namespace topo

#endif  // SRC_TOPOLOGY_NAV_GRAPH_H_
