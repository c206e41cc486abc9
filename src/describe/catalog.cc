#include "src/describe/catalog.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/support/metrics.h"
#include "src/text/tokens.h"

namespace desc {
namespace {

// True if the node's children form a large homogeneous enumeration.
bool IsLargeEnumeration(const topo::NavGraph& dag, const topo::Tree& tree,
                        const topo::TreeNode& node, size_t limit) {
  if (node.children.size() <= limit) {
    return false;
  }
  std::map<uia::ControlType, size_t> type_counts;
  for (int child : node.children) {
    const topo::TreeNode& cn = tree.nodes[static_cast<size_t>(child)];
    if (cn.is_reference) {
      continue;
    }
    ++type_counts[dag.node(cn.graph_index).type];
  }
  size_t top = 0;
  for (const auto& [type, count] : type_counts) {
    top = std::max(top, count);
  }
  return top * 10 >= node.children.size() * 9;
}

}  // namespace

TopologyCatalog::TopologyCatalog(topo::NavGraph dag, topo::Forest forest,
                                 const PruneOptions& prune, DescribeOptions describe)
    : dag_(std::move(dag)), forest_(std::move(forest)), describe_(describe) {
  core_ids_ = IdSet(forest_.max_id());
  ComputeCore(prune);
  core_text_ = SerializeForest(dag_, forest_, describe_, &core_ids_);
  core_tokens_ = textutil::CountTokens(core_text_);
  full_text_ = SerializeForest(dag_, forest_, describe_);
  full_tokens_ = textutil::CountTokens(full_text_);
}

void TopologyCatalog::ComputeCore(const PruneOptions& prune) {
  // Walk every tree, keeping nodes up to max_depth, eliding large
  // enumerations' children and manually excluded subtrees. The walk keeps
  // its own stack of (node, depth), so a deep chain cannot overflow the call
  // stack; the order it visits in does not matter.
  std::vector<std::pair<int, int>> stack;
  auto visit = [&](const topo::Tree& tree) {
    stack.emplace_back(0, 0);
    while (!stack.empty()) {
      const auto [index, depth] = stack.back();
      stack.pop_back();
      const topo::TreeNode& node = tree.nodes[static_cast<size_t>(index)];
      core_ids_.insert(node.id);
      ++core_stats_.kept;
      if (node.is_reference) {
        continue;
      }
      if (depth >= prune.max_depth) {
        core_stats_.elided += node.children.size();
        continue;
      }
      const topo::NodeInfo& info = dag_.node(node.graph_index);
      if (prune.manual_exclude_names.count(info.name) > 0) {
        core_stats_.elided += node.children.size();
        continue;
      }
      if (IsLargeEnumeration(dag_, tree, node, prune.enumeration_limit)) {
        core_stats_.elided += node.children.size();
        ++core_stats_.elided_enumerations;
        continue;
      }
      for (int child : node.children) {
        stack.emplace_back(child, depth + 1);
      }
    }
  };
  visit(forest_.main());
  for (const topo::Tree& tree : forest_.shared()) {
    if (!tree.nodes.empty()) {
      visit(tree);
    }
  }
}

support::Result<std::string> TopologyCatalog::ExpandBranch(int id) const {
  static support::Counter& calls =
      support::MetricsRegistry::Global().GetCounter("describe.expand_branch_calls");
  calls.Increment();
  auto loc = forest_.LocateById(id);
  if (!loc.ok()) {
    return loc.status();
  }
  const topo::TreeNode* node = forest_.NodeAt(*loc);
  if (node->is_reference) {
    // Expanding a reference expands the shared subtree it points at.
    return std::string("## Shared subtree S") + std::to_string(node->ref_subtree) + "\n" +
           SerializeTree(dag_, forest_, node->ref_subtree, describe_);
  }
  // Serialize the branch rooted at `id` without pruning: temporary keep-set
  // of the branch's ids.
  const topo::Tree& tree = loc->tree < 0 ? forest_.main()
                                         : forest_.shared()[static_cast<size_t>(loc->tree)];
  IdSet branch(forest_.max_id());
  std::vector<int> stack = {loc->node};
  while (!stack.empty()) {
    const topo::TreeNode& n = tree.nodes[static_cast<size_t>(stack.back())];
    stack.pop_back();
    branch.insert(n.id);
    stack.insert(stack.end(), n.children.begin(), n.children.end());
  }
  // Also keep ancestors so the output is rooted and readable.
  int cursor = loc->node;
  while (cursor >= 0) {
    branch.insert(tree.nodes[static_cast<size_t>(cursor)].id);
    cursor = tree.nodes[static_cast<size_t>(cursor)].parent;
  }
  return SerializeTree(dag_, forest_, loc->tree, describe_, &branch);
}

}  // namespace desc
