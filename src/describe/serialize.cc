#include "src/describe/serialize.h"

#include "src/support/strings.h"
#include "src/text/tokens.h"

namespace desc {
namespace {

// Rough serialized footprint per node, used to pre-reserve output strings
// (name + type + truncated description + id + brackets).
constexpr size_t kReservePerNode = 28;

const topo::Tree& TreeOf(const topo::Forest& forest, int tree) {
  return tree < 0 ? forest.main() : forest.shared()[static_cast<size_t>(tree)];
}

// Writes one node's own text — the whole of it for a reference, else its
// name, type, description and id — and opens its child list with '[' when it
// has children (kept or elided). Returns whether it opened one.
bool SerializeHead(const topo::NavGraph& dag, const topo::Forest& forest,
                   const topo::TreeNode& node, const DescribeOptions& options, std::string& out) {
  if (node.is_reference) {
    out += "@ref->S" + std::to_string(node.ref_subtree) + "_" + std::to_string(node.id);
    return false;
  }
  const topo::NodeInfo& info = dag.node(node.graph_index);
  out += info.name.empty() ? "[Unnamed]" : info.name;
  // Type is attached for key control types and for navigation non-leaves;
  // plain leaf items omit it to save tokens.
  const bool non_leaf = !node.children.empty();
  if (uia::IsKeyControlType(info.type) || non_leaf) {
    out += "(";
    out += uia::ControlTypeName(info.type);
    out += ")";
  }
  if (options.include_descriptions && !info.description.empty() &&
      WantsDescription(dag, forest, node)) {
    out += "(";
    out += textutil::TruncateToTokens(info.description, options.max_description_tokens);
    out += ")";
  }
  out += "_" + std::to_string(node.id);
  if (!non_leaf) {
    return false;
  }
  out += "[";
  return true;
}

// Serializes the subtree at `root_index` in pre-order: each node's kept
// children in brackets, comma-separated, and the elided ones counted as
// "+N more" at the end of the list. The walk keeps its own stack, so a chain
// as deep as the forest is long cannot overflow the call stack.
void SerializeSubtree(const topo::NavGraph& dag, const topo::Forest& forest,
                      const topo::Tree& tree, int root_index, const DescribeOptions& options,
                      const IdSet* keep, std::string& out) {
  struct Frame {
    const topo::TreeNode* node;
    size_t next = 0;     // the next child to consider
    size_t elided = 0;   // children dropped by `keep` so far
    bool emitted = false;
  };
  std::vector<Frame> stack;
  auto open = [&](int index) {
    const topo::TreeNode& node = tree.nodes[static_cast<size_t>(index)];
    if (SerializeHead(dag, forest, node, options, out)) {
      stack.push_back(Frame{&node});
    }
  };
  open(root_index);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next == frame.node->children.size()) {
      if (frame.elided > 0) {
        if (frame.emitted) {
          out += ",";
        }
        out += "+" + std::to_string(frame.elided) + " more";
      }
      out += "]";
      stack.pop_back();
      continue;
    }
    const int child = frame.node->children[frame.next++];
    if (keep != nullptr && !keep->contains(tree.nodes[static_cast<size_t>(child)].id)) {
      ++frame.elided;
      continue;
    }
    if (frame.emitted) {
      out += ",";
    }
    frame.emitted = true;
    open(child);  // `frame` dangles from here
  }
}

// A shared subtree's section is emitted iff its root survives `keep`.
bool SubtreeEmitted(const topo::Forest& forest, int subtree, const IdSet* keep) {
  const topo::Tree& tree = forest.shared()[static_cast<size_t>(subtree)];
  if (tree.nodes.empty()) {
    return false;
  }
  return keep == nullptr || keep->contains(tree.nodes[0].id);
}

}  // namespace

bool WantsDescription(const topo::NavGraph& dag, const topo::Forest& forest,
                      const topo::TreeNode& node) {
  (void)forest;
  if (node.is_reference) {
    return false;
  }
  if (!node.children.empty()) {
    return true;  // navigation nodes are few but pivotal (§4.2)
  }
  return uia::IsKeyControlType(dag.node(node.graph_index).type);
}

std::string SerializeTree(const topo::NavGraph& dag, const topo::Forest& forest, int tree,
                          const DescribeOptions& options, const IdSet* keep) {
  const topo::Tree& t = TreeOf(forest, tree);
  if (t.nodes.empty()) {
    return "";
  }
  std::string out;
  out.reserve(t.nodes.size() * kReservePerNode);
  SerializeSubtree(dag, forest, t, 0, options, keep, out);
  return out;
}

std::string SerializeEntryMap(const topo::Forest& forest, const IdSet* keep) {
  // Entry map: reference id -> subtree root id (paper §3.3 "shared subtree
  // entry map"), via the precomputed reverse-reference index. An entry is
  // suppressed when its reference is pruned, and also when the target
  // subtree's section was itself pruned away: the entry would otherwise point
  // at text that was never serialized.
  std::string entries;
  entries.reserve(forest.AllReferences().size() * 12);
  for (const topo::ReferenceEntry& ref : forest.AllReferences()) {
    if (keep != nullptr && !keep->contains(ref.ref_id)) {
      continue;
    }
    if (!SubtreeEmitted(forest, ref.subtree, keep)) {
      continue;
    }
    const topo::TreeNode& root =
        forest.shared()[static_cast<size_t>(ref.subtree)].nodes[0];
    if (!entries.empty()) {
      entries += ",";
    }
    entries += std::to_string(ref.ref_id) + "->S" + std::to_string(ref.subtree) + ":" +
               std::to_string(root.id);
  }
  if (entries.empty()) {
    return "";
  }
  return "## Entry map (ref_id->subtree:root_id)\n" + entries + "\n";
}

std::string SerializeForest(const topo::NavGraph& dag, const topo::Forest& forest,
                            const DescribeOptions& options, const IdSet* keep) {
  std::string out;
  out.reserve(forest.total_nodes() * kReservePerNode + 64);
  out += "# Navigation topology\n## Main tree\n";
  out += SerializeTree(dag, forest, -1, options, keep);
  out += "\n";
  for (size_t s = 0; s < forest.shared().size(); ++s) {
    // A shared subtree whose root is pruned away is skipped entirely.
    if (!SubtreeEmitted(forest, static_cast<int>(s), keep)) {
      continue;
    }
    out += "## Shared subtree S" + std::to_string(s) + "\n";
    out += SerializeTree(dag, forest, static_cast<int>(s), options, keep);
    out += "\n";
  }
  out += SerializeEntryMap(forest, keep);
  return out;
}

}  // namespace desc
