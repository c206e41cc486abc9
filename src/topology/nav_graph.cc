#include "src/topology/nav_graph.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <string_view>
#include <unordered_set>

namespace topo {

NavGraph::NavGraph() : index_once_(std::make_unique<std::once_flag>()) {
  NodeInfo root;
  root.control_id = "[Root]|Pane|";
  root.name = "[Root]";
  root.type = uia::ControlType::kPane;
  nodes_.push_back(root);
  adjacency_.emplace_back();
  index_by_id_[nodes_[0].control_id] = 0;
}

NavGraph::NavGraph(const NavGraph& other)
    : nodes_(other.nodes_),
      adjacency_(other.adjacency_),
      index_by_id_(other.index_by_id_),
      index_once_(std::make_unique<std::once_flag>()) {}

NavGraph& NavGraph::operator=(const NavGraph& other) {
  if (this != &other) {
    nodes_ = other.nodes_;
    adjacency_ = other.adjacency_;
    index_by_id_ = other.index_by_id_;
    index_once_ = std::make_unique<std::once_flag>();
  }
  return *this;
}

void NavGraph::EnsureIndex() const {
  std::call_once(*index_once_, [this] {
    if (!index_by_id_.empty()) {
      return;  // built eagerly (AddNode path) or copied from a built graph
    }
    index_by_id_.reserve(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      index_by_id_.emplace(nodes_[i].control_id, static_cast<int>(i));
    }
  });
}

int NavGraph::AddNode(const NodeInfo& info) {
  assert(!info.control_id.empty());
  EnsureIndex();
  auto it = index_by_id_.find(info.control_id);
  if (it != index_by_id_.end()) {
    return it->second;
  }
  const int index = static_cast<int>(nodes_.size());
  nodes_.push_back(info);
  adjacency_.emplace_back();
  index_by_id_[info.control_id] = index;
  return index;
}

int NavGraph::FindNode(const std::string& control_id) const {
  EnsureIndex();
  auto it = index_by_id_.find(control_id);
  return it == index_by_id_.end() ? -1 : it->second;
}

void NavGraph::AddEdge(int from, int to) {
  assert(from >= 0 && from < static_cast<int>(nodes_.size()));
  assert(to >= 0 && to < static_cast<int>(nodes_.size()));
  if (from == to) {
    return;
  }
  auto& succ = adjacency_[static_cast<size_t>(from)];
  for (int existing : succ) {
    if (existing == to) {
      return;
    }
  }
  succ.push_back(to);
}

size_t NavGraph::edge_count() const {
  size_t n = 0;
  for (const auto& succ : adjacency_) {
    n += succ.size();
  }
  return n;
}

std::vector<int> NavGraph::InDegrees() const {
  std::vector<int> indeg(nodes_.size(), 0);
  for (const auto& succ : adjacency_) {
    for (int to : succ) {
      ++indeg[static_cast<size_t>(to)];
    }
  }
  return indeg;
}

std::vector<bool> NavGraph::Reachable() const {
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<int> queue = {kRootIndex};
  seen[kRootIndex] = true;
  while (!queue.empty()) {
    int n = queue.front();
    queue.pop_front();
    for (int to : adjacency_[static_cast<size_t>(n)]) {
      if (!seen[static_cast<size_t>(to)]) {
        seen[static_cast<size_t>(to)] = true;
        queue.push_back(to);
      }
    }
  }
  return seen;
}

GraphStats NavGraph::ComputeStats() const {
  GraphStats stats;
  stats.nodes = nodes_.size();
  stats.edges = edge_count();
  for (int d : InDegrees()) {
    if (d > 1) {
      ++stats.merge_nodes;
    }
  }
  // BFS depth from the root.
  std::vector<int> depth(nodes_.size(), -1);
  std::deque<int> queue = {kRootIndex};
  depth[kRootIndex] = 0;
  while (!queue.empty()) {
    int n = queue.front();
    queue.pop_front();
    stats.max_depth = std::max(stats.max_depth, depth[static_cast<size_t>(n)]);
    for (int to : adjacency_[static_cast<size_t>(n)]) {
      if (depth[static_cast<size_t>(to)] < 0) {
        depth[static_cast<size_t>(to)] = depth[static_cast<size_t>(n)] + 1;
        queue.push_back(to);
      }
    }
  }
  return stats;
}

void NavGraph::MergeFrom(const NavGraph& other) {
  std::vector<int> remap(other.nodes_.size());
  for (size_t i = 0; i < other.nodes_.size(); ++i) {
    remap[i] = AddNode(other.nodes_[i]);  // root dedups onto our root
  }
  for (size_t from = 0; from < other.adjacency_.size(); ++from) {
    for (int to : other.adjacency_[from]) {
      AddEdge(remap[from], remap[static_cast<size_t>(to)]);
    }
  }
}

NavGraph NavGraph::Canonicalized() const {
  std::vector<int> order;
  order.reserve(nodes_.size());
  for (size_t i = 1; i < nodes_.size(); ++i) {
    order.push_back(static_cast<int>(i));
  }
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    return nodes_[static_cast<size_t>(a)].control_id < nodes_[static_cast<size_t>(b)].control_id;
  });

  NavGraph out;
  std::vector<int> remap(nodes_.size(), kRootIndex);
  for (int old_index : order) {
    remap[static_cast<size_t>(old_index)] = out.AddNode(nodes_[static_cast<size_t>(old_index)]);
  }
  for (size_t from = 0; from < adjacency_.size(); ++from) {
    for (int to : adjacency_[from]) {
      out.AddEdge(remap[from], remap[static_cast<size_t>(to)]);
    }
  }
  for (auto& succ : out.adjacency_) {
    std::sort(succ.begin(), succ.end());
  }
  return out;
}

support::Result<NavGraph> NavGraph::FromParts(std::vector<NodeInfo> nodes,
                                              std::vector<std::vector<int>> adjacency) {
  if (nodes.empty() || nodes.size() != adjacency.size()) {
    return support::InvalidArgumentError("graph parts misaligned: " +
                                         std::to_string(nodes.size()) + " nodes vs " +
                                         std::to_string(adjacency.size()) + " adjacency rows");
  }
  const int count = static_cast<int>(nodes.size());
  for (const auto& row : adjacency) {
    for (int to : row) {
      if (to < 0 || to >= count) {
        return support::InvalidArgumentError("graph edge target out of range: " +
                                             std::to_string(to));
      }
    }
  }
  // Uniqueness check without materializing the string-keyed index: the
  // eager map rebuild costs ~4x the whole rest of an artifact's DAG parse,
  // so it is deferred until the first lookup (EnsureIndex, call_once) —
  // most loaded graphs are only ever walked by index. 64-bit hashes go into a flat
  // open-addressed probe table; a hash ever seen twice (real duplicate or
  // collision) takes the exact slow path.
  size_t cap = 16;
  while (cap < nodes.size() * 2) {
    cap <<= 1;
  }
  std::vector<uint64_t> table(cap, 0);
  bool need_exact = false;
  for (int i = 0; i < count && !need_exact; ++i) {
    const std::string& id = nodes[static_cast<size_t>(i)].control_id;
    uint64_t h = std::hash<std::string_view>{}(id);
    h += (h == 0);  // 0 marks an empty slot
    for (size_t slot = h & (cap - 1);; slot = (slot + 1) & (cap - 1)) {
      if (table[slot] == 0) {
        table[slot] = h;
        break;
      }
      if (table[slot] == h) {
        need_exact = true;
        break;
      }
    }
  }
  if (need_exact) {
    std::unordered_set<std::string_view> seen;
    seen.reserve(nodes.size());
    for (int i = 0; i < count; ++i) {
      if (!seen.insert(nodes[static_cast<size_t>(i)].control_id).second) {
        return support::InvalidArgumentError("duplicate control id at node " +
                                             std::to_string(i));
      }
    }
  }
  for (int i = 0; i < count; ++i) {
    if (nodes[static_cast<size_t>(i)].control_id.empty()) {
      return support::InvalidArgumentError("empty control id at node " + std::to_string(i));
    }
  }
  NavGraph graph;
  graph.nodes_ = std::move(nodes);
  graph.adjacency_ = std::move(adjacency);
  graph.index_by_id_.clear();
  return graph;
}

jsonv::Value NavGraph::ToJson() const {
  jsonv::Array nodes;
  for (const auto& n : nodes_) {
    jsonv::Object obj;
    obj["id"] = n.control_id;
    obj["name"] = n.name;
    obj["type"] = std::string(uia::ControlTypeName(n.type));
    if (!n.description.empty()) {
      obj["desc"] = n.description;
    }
    if (!n.automation_id.empty()) {
      obj["aid"] = n.automation_id;
    }
    nodes.push_back(jsonv::Value(std::move(obj)));
  }
  jsonv::Array edges;
  for (size_t from = 0; from < adjacency_.size(); ++from) {
    for (int to : adjacency_[from]) {
      edges.push_back(jsonv::Value(jsonv::Array{jsonv::Value(static_cast<int64_t>(from)),
                                                jsonv::Value(static_cast<int64_t>(to))}));
    }
  }
  jsonv::Object doc;
  doc["nodes"] = jsonv::Value(std::move(nodes));
  doc["edges"] = jsonv::Value(std::move(edges));
  return jsonv::Value(std::move(doc));
}

}  // namespace topo
