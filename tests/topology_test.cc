#include <gtest/gtest.h>

#include <set>

#include "src/support/rng.h"
#include "src/topology/nav_graph.h"
#include "src/topology/transform.h"
#include "src/topology/validate.h"

namespace {

using topo::Decycle;
using topo::Forest;
using topo::NavGraph;
using topo::NodeInfo;
using topo::SelectiveExternalize;

NodeInfo Node(const std::string& name,
              uia::ControlType type = uia::ControlType::kButton) {
  NodeInfo info;
  info.control_id = name + "|" + std::string(uia::ControlTypeName(type)) + "|test";
  info.name = name;
  info.type = type;
  return info;
}

// A -> B -> C chain plus root.
NavGraph ChainGraph() {
  NavGraph g;
  int a = g.AddNode(Node("A"));
  int b = g.AddNode(Node("B"));
  int c = g.AddNode(Node("C"));
  g.AddEdge(NavGraph::kRootIndex, a);
  g.AddEdge(NavGraph::kRootIndex + 0, a);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  return g;
}

// The paper's Figure 4 shape: two branches merging into a node with a
// substructure: root -> {A, B}; A -> M; B -> M; M -> {X, Y}.
NavGraph DiamondGraph() {
  NavGraph g;
  int a = g.AddNode(Node("A"));
  int b = g.AddNode(Node("B"));
  int m = g.AddNode(Node("M"));
  int x = g.AddNode(Node("X"));
  int y = g.AddNode(Node("Y"));
  g.AddEdge(NavGraph::kRootIndex, a);
  g.AddEdge(NavGraph::kRootIndex, b);
  g.AddEdge(a, m);
  g.AddEdge(b, m);
  g.AddEdge(m, x);
  g.AddEdge(m, y);
  return g;
}

// ----- NavGraph basics -----------------------------------------------------------

TEST(NavGraphTest, RootAlwaysPresent) {
  NavGraph g;
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.node(0).name, "[Root]");
}

TEST(NavGraphTest, AddNodeDeduplicatesById) {
  NavGraph g;
  int a1 = g.AddNode(Node("A"));
  int a2 = g.AddNode(Node("A"));
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(NavGraphTest, AddEdgeDeduplicatesAndDropsSelfLoops) {
  NavGraph g;
  int a = g.AddNode(Node("A"));
  g.AddEdge(0, a);
  g.AddEdge(0, a);
  g.AddEdge(a, a);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(NavGraphTest, StatsOnDiamond) {
  NavGraph g = DiamondGraph();
  topo::GraphStats stats = g.ComputeStats();
  EXPECT_EQ(stats.nodes, 6u);
  EXPECT_EQ(stats.edges, 6u);
  EXPECT_EQ(stats.merge_nodes, 1u);
  EXPECT_EQ(stats.max_depth, 3);
}

// ----- Decycle -----------------------------------------------------------------

TEST(DecycleTest, AcyclicGraphUnchanged) {
  NavGraph g = DiamondGraph();
  auto result = Decycle(g);
  EXPECT_EQ(result.removed_back_edges, 0u);
  EXPECT_EQ(result.dag.node_count(), g.node_count());
  EXPECT_EQ(result.dag.edge_count(), g.edge_count());
}

TEST(DecycleTest, RemovesSimpleCycle) {
  NavGraph g = ChainGraph();
  g.AddEdge(g.FindNode(Node("C").control_id), g.FindNode(Node("A").control_id));
  auto result = Decycle(g);
  EXPECT_EQ(result.removed_back_edges, 1u);
  EXPECT_EQ(result.dag.edge_count(), 3u);
}

TEST(DecycleTest, RemovesTwoCycle) {
  NavGraph g;
  int a = g.AddNode(Node("A"));
  int b = g.AddNode(Node("B"));
  g.AddEdge(0, a);
  g.AddEdge(a, b);
  g.AddEdge(b, a);
  auto result = Decycle(g);
  EXPECT_EQ(result.removed_back_edges, 1u);
}

TEST(DecycleTest, DropsUnreachableNodes) {
  NavGraph g = ChainGraph();
  g.AddNode(Node("Island"));
  auto result = Decycle(g);
  EXPECT_EQ(result.unreachable_dropped, 1u);
  EXPECT_EQ(result.dag.FindNode(Node("Island").control_id), -1);
}

TEST(DecycleTest, PreservesReachabilityOnRandomGraphs) {
  support::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    NavGraph g;
    std::vector<int> ids;
    for (int i = 0; i < 30; ++i) {
      ids.push_back(g.AddNode(Node("N" + std::to_string(trial) + "_" + std::to_string(i))));
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      int parent = i == 0 ? 0 : ids[rng.NextBelow(i)];
      g.AddEdge(parent, ids[i]);
    }
    for (int e = 0; e < 40; ++e) {
      int from = ids[rng.NextBelow(ids.size())];
      int to = ids[rng.NextBelow(ids.size())];
      g.AddEdge(from, to);
    }
    auto result = Decycle(g);
    EXPECT_EQ(result.unreachable_dropped, 0u);
    auto reach = result.dag.Reachable();
    for (size_t i = 0; i < result.dag.node_count(); ++i) {
      EXPECT_TRUE(reach[i]) << "node " << i << " unreachable after decycle";
    }
    Forest f = SelectiveExternalize(result.dag, 8);
    EXPECT_GT(f.total_nodes(), 0u);
  }
}

// ----- NaiveCloneCount -----------------------------------------------------------

TEST(NaiveCloneTest, TreeCountsExactNodes) {
  EXPECT_EQ(topo::NaiveCloneCount(ChainGraph()), 4u);
}

TEST(NaiveCloneTest, DiamondDuplicatesSubstructure) {
  // f(M)=3; f(A)=f(B)=4; f(root)=1+4+4=9.
  EXPECT_EQ(topo::NaiveCloneCount(DiamondGraph()), 9u);
}

TEST(NaiveCloneTest, LayeredDiamondsExplodeExponentially) {
  NavGraph g;
  int prev = 0;
  for (int layer = 0; layer < 40; ++layer) {
    int a = g.AddNode(Node("A" + std::to_string(layer)));
    int b = g.AddNode(Node("B" + std::to_string(layer)));
    int join = g.AddNode(Node("J" + std::to_string(layer)));
    g.AddEdge(prev, a);
    g.AddEdge(prev, b);
    g.AddEdge(a, join);
    g.AddEdge(b, join);
    prev = join;
  }
  EXPECT_GT(topo::NaiveCloneCount(g), 1ULL << 40);
}

// ----- SelectiveExternalize -------------------------------------------------------

TEST(ExternalizeTest, ChainStaysSingleTree) {
  Forest f = SelectiveExternalize(ChainGraph(), 8);
  EXPECT_TRUE(f.shared().empty());
  EXPECT_EQ(f.total_nodes(), 4u);
  EXPECT_EQ(f.reference_count(), 0u);
}

TEST(ExternalizeTest, ThresholdZeroExternalizesEveryMergeNode) {
  Forest f = SelectiveExternalize(DiamondGraph(), 0);
  ASSERT_EQ(f.shared().size(), 1u);
  EXPECT_EQ(f.main().nodes.size(), 5u);      // root, A, ref, B, ref
  EXPECT_EQ(f.shared()[0].nodes.size(), 3u); // M, X, Y
  EXPECT_EQ(f.reference_count(), 2u);
}

TEST(ExternalizeTest, HugeThresholdReproducesNaiveClone) {
  Forest f = SelectiveExternalize(DiamondGraph(), 1ULL << 40);
  EXPECT_TRUE(f.shared().empty());
  EXPECT_EQ(f.total_nodes(), topo::NaiveCloneCount(DiamondGraph()));
}

TEST(ExternalizeTest, IdsAreConsecutiveFromOne) {
  Forest f = SelectiveExternalize(DiamondGraph(), 0);
  std::vector<int> ids = f.AllIds();
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<int>(i) + 1);
  }
  EXPECT_EQ(f.max_id(), static_cast<int>(f.total_nodes()));
}

TEST(ExternalizeTest, MainTreePathResolution) {
  NavGraph g = ChainGraph();
  Forest f = SelectiveExternalize(g, 8);
  int c_id = -1;
  for (int id : f.AllIds()) {
    const topo::TreeNode* n = f.FindById(id);
    if (!n->is_reference && g.node(n->graph_index).name == "C") {
      c_id = id;
    }
  }
  ASSERT_GT(c_id, 0);
  auto path = f.ResolvePath(c_id, {});
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path->size(), 3u);
  EXPECT_EQ(g.node((*path)[0]).name, "A");
  EXPECT_EQ(g.node((*path)[2]).name, "C");
}

TEST(ExternalizeTest, SharedTargetRequiresEntryRef) {
  NavGraph g = DiamondGraph();
  Forest f = SelectiveExternalize(g, 0);
  int x_id = -1;
  std::vector<int> ref_ids;
  for (int id : f.AllIds()) {
    const topo::TreeNode* n = f.FindById(id);
    if (n->is_reference) {
      ref_ids.push_back(id);
    } else if (g.node(n->graph_index).name == "X") {
      x_id = id;
    }
  }
  ASSERT_GT(x_id, 0);
  ASSERT_EQ(ref_ids.size(), 2u);
  auto no_ref = f.ResolvePath(x_id, {});
  ASSERT_FALSE(no_ref.ok());
  EXPECT_EQ(no_ref.status().code(), support::StatusCode::kFailedPrecondition);
  std::set<std::string> first_hops;
  for (int ref : ref_ids) {
    auto path = f.ResolvePath(x_id, {ref});
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    ASSERT_EQ(path->size(), 3u);  // A-or-B, M, X
    EXPECT_EQ(g.node(path->back()).name, "X");
    first_hops.insert(g.node((*path)[0]).name);
  }
  EXPECT_EQ(first_hops.size(), 2u);  // the two entry paths differ (A vs B)
}

TEST(ExternalizeTest, ReferenceNodeIsNotAValidTarget) {
  Forest f = SelectiveExternalize(DiamondGraph(), 0);
  bool tested = false;
  for (int id : f.AllIds()) {
    if (f.FindById(id)->is_reference) {
      auto path = f.ResolvePath(id, {});
      EXPECT_FALSE(path.ok());
      EXPECT_EQ(path.status().code(), support::StatusCode::kInvalidArgument);
      tested = true;
      break;
    }
  }
  EXPECT_TRUE(tested);
}

TEST(ExternalizeTest, LeafnessReflectsTopology) {
  NavGraph g = DiamondGraph();
  Forest f = SelectiveExternalize(g, 0);
  for (int id : f.AllIds()) {
    const topo::TreeNode* n = f.FindById(id);
    if (n->is_reference) {
      EXPECT_FALSE(f.IsLeaf(id));
    } else {
      const std::string& name = g.node(n->graph_index).name;
      if (name == "X" || name == "Y") {
        EXPECT_TRUE(f.IsLeaf(id));
      } else {
        EXPECT_FALSE(f.IsLeaf(id)) << name;
      }
    }
  }
}

TEST(ExternalizeTest, UnknownIdGivesNotFound) {
  Forest f = SelectiveExternalize(ChainGraph(), 8);
  auto path = f.ResolvePath(9999, {});
  EXPECT_EQ(path.status().code(), support::StatusCode::kNotFound);
}

TEST(ExternalizeTest, DepthOfNodes) {
  NavGraph g = ChainGraph();
  Forest f = SelectiveExternalize(g, 8);
  for (int id : f.AllIds()) {
    const topo::TreeNode* n = f.FindById(id);
    const std::string& name = g.node(n->graph_index).name;
    if (name == "C") {
      EXPECT_EQ(f.DepthOf(id), 3);
    }
    if (name == "[Root]") {
      EXPECT_EQ(f.DepthOf(id), 0);
    }
  }
}

// Threshold sweep as a parameterized property suite: for any threshold the
// forest must be complete and path-unambiguous.
class ThresholdSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThresholdSweep, RandomDagsValidateClean) {
  support::Rng rng(1234 + GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    NavGraph g;
    std::vector<int> ids;
    for (int i = 0; i < 60; ++i) {
      ids.push_back(
          g.AddNode(Node("T" + std::to_string(trial) + "_" + std::to_string(i))));
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      int parent = i == 0 ? 0 : ids[rng.NextBelow(i)];
      g.AddEdge(parent, ids[i]);
    }
    for (int e = 0; e < 35; ++e) {
      size_t i = rng.NextBelow(ids.size() - 1);
      size_t j = i + 1 + rng.NextBelow(ids.size() - i - 1);
      g.AddEdge(ids[i], ids[j]);
    }
    auto dag = Decycle(g).dag;
    Forest f = SelectiveExternalize(dag, GetParam());
    topo::ValidationReport report = topo::ValidateForest(dag, f);
    EXPECT_TRUE(report.ok) << "threshold " << GetParam() << ": "
                           << (report.problems.empty() ? "" : report.problems[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(0, 2, 8, 24, 128, 4096));

// Note: forest size is NOT strictly monotone in the threshold — externalizing
// a tiny merge node (subtree + one ref per in-edge) can cost slightly more
// than cloning it. The real invariants: the forest never exceeds the naive
// clone count, reaches it exactly at a huge threshold, and stays within a
// small constant of the DAG size at practical thresholds (linear growth).
TEST(ExternalizeTest, SizeBoundsAcrossThresholds) {
  support::Rng rng(777);
  NavGraph g;
  std::vector<int> ids;
  for (int i = 0; i < 80; ++i) {
    ids.push_back(g.AddNode(Node("S" + std::to_string(i))));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    int parent = i == 0 ? 0 : ids[rng.NextBelow(i)];
    g.AddEdge(parent, ids[i]);
  }
  for (int e = 0; e < 60; ++e) {
    size_t i = rng.NextBelow(ids.size() - 1);
    size_t j = i + 1 + rng.NextBelow(ids.size() - i - 1);
    g.AddEdge(ids[i], ids[j]);
  }
  auto dag = Decycle(g).dag;
  const uint64_t naive = topo::NaiveCloneCount(dag);
  for (uint64_t threshold : {0ULL, 2ULL, 8ULL, 32ULL, 128ULL}) {
    size_t total = SelectiveExternalize(dag, threshold).total_nodes();
    EXPECT_LE(total, naive) << "threshold " << threshold;
    EXPECT_GE(total, dag.node_count()) << "threshold " << threshold;
    // Linear growth at practical thresholds (paper §3.2 "ensures linear
    // node growth"): stays within a small constant of the DAG size.
    if (threshold <= 32) {
      EXPECT_LE(total, 8 * dag.node_count()) << "threshold " << threshold;
    }
  }
  EXPECT_EQ(SelectiveExternalize(dag, naive + 1).total_nodes(), naive);
}

TEST(ValidateTest, CompletenessCatchesMissingNodes) {
  NavGraph g = DiamondGraph();
  Forest f = SelectiveExternalize(ChainGraph(), 8);  // forest of the wrong graph
  topo::ValidationReport report = topo::ValidateCompleteness(g, f);
  EXPECT_FALSE(report.ok);
}


TEST(ExternalizeTest, NestedReferenceChainsResolveWithBacktracking) {
  // Two levels of shared subtrees: root -> {A, B} -> S1; S1 -> {C, D} -> S2;
  // S2 -> target. Resolving the target needs a chain of two refs, and the
  // provided set may contain refs that lead nowhere — backtracking must pick
  // a viable combination.
  NavGraph g;
  int a = g.AddNode(Node("A"));
  int b = g.AddNode(Node("B"));
  int s1 = g.AddNode(Node("S1"));
  int c = g.AddNode(Node("C"));
  int d = g.AddNode(Node("D"));
  int s2 = g.AddNode(Node("S2"));
  int target = g.AddNode(Node("Target"));
  g.AddEdge(0, a);
  g.AddEdge(0, b);
  g.AddEdge(a, s1);
  g.AddEdge(b, s1);
  g.AddEdge(s1, c);
  g.AddEdge(s1, d);
  g.AddEdge(c, s2);
  g.AddEdge(d, s2);
  g.AddEdge(s2, target);
  Forest f = SelectiveExternalize(g, 0);
  ASSERT_EQ(f.shared().size(), 2u);

  int target_id = -1;
  std::vector<int> all_refs;
  for (int id : f.AllIds()) {
    const topo::TreeNode* n = f.FindById(id);
    if (n->is_reference) {
      all_refs.push_back(id);
    } else if (g.node(n->graph_index).name == "Target") {
      target_id = id;
    }
  }
  ASSERT_GT(target_id, 0);
  ASSERT_EQ(all_refs.size(), 4u);  // two refs per subtree
  // With the full ref set, resolution succeeds and yields a valid walk of
  // length 5: hop, S1, hop, S2, Target.
  auto path = f.ResolvePath(target_id, all_refs);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(path->size(), 5u);
  EXPECT_EQ(g.node(path->back()).name, "Target");
  // With only an S2-level ref the chain cannot reach the main tree.
  for (int ref : all_refs) {
    const topo::TreeNode* n = f.FindById(ref);
    auto loc = f.LocateById(ref);
    if (loc->tree >= 0) {  // a ref living inside S1
      auto partial = f.ResolvePath(target_id, {ref});
      EXPECT_FALSE(partial.ok());
      (void)n;
      break;
    }
  }
}

TEST(ExternalizeTest, ReverseReferenceIndexMatchesScan) {
  // The precomputed reverse-reference index must agree with a brute scan over
  // every tree (main first, then shared, nodes in order) — both the flat
  // AllReferences() view and the per-subtree RefsTo() buckets.
  support::Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    NavGraph g;
    std::vector<int> ids;
    for (int i = 0; i < 120; ++i) {
      ids.push_back(g.AddNode(Node("R" + std::to_string(trial) + "_" + std::to_string(i))));
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      g.AddEdge(i == 0 ? 0 : ids[rng.NextBelow(i)], ids[i]);
    }
    for (int e = 0; e < 60; ++e) {
      size_t i = rng.NextBelow(ids.size() - 1);
      size_t j = i + 1 + rng.NextBelow(ids.size() - i - 1);
      g.AddEdge(ids[i], ids[j]);
    }
    Forest f = SelectiveExternalize(Decycle(g).dag, 0);

    std::vector<std::pair<int, int>> scanned;  // (ref_id, subtree)
    auto scan = [&scanned](const topo::Tree& tree) {
      for (const topo::TreeNode& n : tree.nodes) {
        if (n.is_reference) {
          scanned.emplace_back(n.id, n.ref_subtree);
        }
      }
    };
    scan(f.main());
    for (const topo::Tree& t : f.shared()) {
      scan(t);
    }

    ASSERT_EQ(f.AllReferences().size(), scanned.size());
    ASSERT_EQ(f.reference_count(), scanned.size());
    for (size_t i = 0; i < scanned.size(); ++i) {
      EXPECT_EQ(f.AllReferences()[i].ref_id, scanned[i].first);
      EXPECT_EQ(f.AllReferences()[i].subtree, scanned[i].second);
    }
    for (size_t s = 0; s < f.shared().size(); ++s) {
      std::vector<int> expected;
      for (const auto& [ref_id, subtree] : scanned) {
        if (subtree == static_cast<int>(s)) {
          expected.push_back(ref_id);
        }
      }
      EXPECT_EQ(f.RefsTo(static_cast<int>(s)), expected) << "subtree " << s;
    }
    // Out-of-range queries are safely empty.
    EXPECT_TRUE(f.RefsTo(-1).empty());
    EXPECT_TRUE(f.RefsTo(static_cast<int>(f.shared().size())).empty());
  }
}

TEST(ExternalizeTest, ResolvePathBacktracksAcrossRefsIntoSameSubtree) {
  // M is shared with three references: two from the main tree (via A and B)
  // and one from inside another shared subtree P. When the provided entry set
  // lists the dead-end ref (inside P, with no way to climb out of P) first,
  // resolution must backtrack onto a main-tree ref rather than fail.
  NavGraph g;
  int a = g.AddNode(Node("A"));
  int b = g.AddNode(Node("B"));
  int c = g.AddNode(Node("C"));
  int d = g.AddNode(Node("D"));
  int m = g.AddNode(Node("M"));
  int p = g.AddNode(Node("P"));
  int x = g.AddNode(Node("X"));
  g.AddEdge(0, a);
  g.AddEdge(0, b);
  g.AddEdge(0, c);
  g.AddEdge(0, d);
  g.AddEdge(a, m);
  g.AddEdge(b, m);
  g.AddEdge(c, p);
  g.AddEdge(d, p);
  g.AddEdge(p, m);
  g.AddEdge(m, x);
  Forest f = SelectiveExternalize(g, 0);
  ASSERT_EQ(f.shared().size(), 2u);

  int target_id = -1;
  int subtree_m = -1;
  for (int id : f.AllIds()) {
    const topo::TreeNode* n = f.FindById(id);
    if (!n->is_reference && g.node(n->graph_index).name == "X") {
      target_id = id;
      subtree_m = f.LocateById(id)->tree;
    }
  }
  ASSERT_GT(target_id, 0);
  ASSERT_GE(subtree_m, 0);

  const std::vector<int>& refs_m = f.RefsTo(subtree_m);
  ASSERT_EQ(refs_m.size(), 3u);  // A-hosted, B-hosted, P-hosted
  int dead_end_ref = -1;
  int main_ref = -1;
  for (int ref : refs_m) {
    if (f.LocateById(ref)->tree >= 0) {
      dead_end_ref = ref;  // lives inside P's subtree
    } else if (main_ref < 0) {
      main_ref = ref;
    }
  }
  ASSERT_GT(dead_end_ref, 0);
  ASSERT_GT(main_ref, 0);

  // Dead-end ref alone: cannot climb out of P without a P-level ref.
  EXPECT_FALSE(f.ResolvePath(target_id, {dead_end_ref}).ok());
  // Dead-end first, viable main-tree ref second: backtracking succeeds and
  // the path stays entirely inside the main tree + M.
  auto path = f.ResolvePath(target_id, {dead_end_ref, main_ref});
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(path->size(), 3u);  // host, M, X
  EXPECT_EQ(g.node(path->back()).name, "X");
  // Dead-end plus a P-level entry ref: the nested chain through P also works
  // and is longer (host, P, M, X).
  const std::vector<int>& refs_p =
      f.RefsTo(f.LocateById(dead_end_ref)->tree);
  ASSERT_FALSE(refs_p.empty());
  auto nested = f.ResolvePath(target_id, {dead_end_ref, refs_p[0]});
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(nested->size(), 4u);
  EXPECT_EQ(g.node(nested->back()).name, "X");
}

TEST(NaiveCloneTest, SaturatesInsteadOfOverflowing) {
  // 80 stacked diamonds: 2^80 >> uint64; the counter must saturate cleanly.
  NavGraph g;
  int prev = 0;
  for (int layer = 0; layer < 80; ++layer) {
    int a = g.AddNode(Node("A" + std::to_string(layer)));
    int b = g.AddNode(Node("B" + std::to_string(layer)));
    int j = g.AddNode(Node("J" + std::to_string(layer)));
    g.AddEdge(prev, a);
    g.AddEdge(prev, b);
    g.AddEdge(a, j);
    g.AddEdge(b, j);
    prev = j;
  }
  EXPECT_EQ(topo::NaiveCloneCount(g), topo::kCloneCountSaturated);
}

}  // namespace
