// Micro-benchmarks (google-benchmark) for the hot offline-phase algorithms:
// decycling, selective externalization, serialization, path resolution, and
// the visit executor's end-to-end latency on a modeled application.
#include <benchmark/benchmark.h>

#include "src/apps/ppoint_sim.h"
#include "src/describe/catalog.h"
#include "src/dmi/session.h"
#include "src/ripper/ripper.h"
#include "src/support/rng.h"
#include "src/topology/transform.h"

namespace {

topo::NavGraph RandomGraph(int nodes, int extra_edges, uint64_t seed) {
  support::Rng rng(seed);
  topo::NavGraph g;
  std::vector<int> ids;
  for (int i = 0; i < nodes; ++i) {
    topo::NodeInfo info;
    info.control_id = "N" + std::to_string(i) + "|Button|bench";
    info.name = "Node " + std::to_string(i);
    info.type = uia::ControlType::kButton;
    ids.push_back(g.AddNode(info));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    g.AddEdge(i == 0 ? 0 : ids[rng.NextBelow(i)], ids[i]);
  }
  for (int e = 0; e < extra_edges; ++e) {
    size_t i = rng.NextBelow(ids.size() - 1);
    size_t j = i + 1 + rng.NextBelow(ids.size() - i - 1);
    g.AddEdge(ids[i], ids[j]);
  }
  return g;
}

void BM_Decycle(benchmark::State& state) {
  topo::NavGraph g = RandomGraph(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(0)) / 2, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::Decycle(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Decycle)->Range(256, 8192)->Complexity();

void BM_SelectiveExternalize(benchmark::State& state) {
  topo::NavGraph g = RandomGraph(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(0)) / 2, 42);
  auto dag = topo::Decycle(g).dag;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topo::SelectiveExternalize(dag, topo::kDefaultExternalizeThreshold));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelectiveExternalize)->Range(256, 8192)->Complexity();

void BM_SerializeForest(benchmark::State& state) {
  topo::NavGraph g = RandomGraph(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(0)) / 2, 42);
  auto dag = topo::Decycle(g).dag;
  topo::Forest f = topo::SelectiveExternalize(dag, topo::kDefaultExternalizeThreshold);
  for (auto _ : state) {
    benchmark::DoNotOptimize(desc::SerializeForest(dag, f, desc::DescribeOptions{}));
  }
}
BENCHMARK(BM_SerializeForest)->Range(256, 8192);

void BM_ResolvePath(benchmark::State& state) {
  topo::NavGraph g = RandomGraph(4096, 2048, 42);
  auto dag = topo::Decycle(g).dag;
  topo::Forest f = topo::SelectiveExternalize(dag, topo::kDefaultExternalizeThreshold);
  std::vector<int> leaf_ids;
  for (int id : f.AllIds()) {
    if (f.IsLeaf(id) && f.LocateById(id)->tree < 0) {
      leaf_ids.push_back(id);
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ResolvePath(leaf_ids[i++ % leaf_ids.size()], {}));
  }
}
BENCHMARK(BM_ResolvePath);

// End-to-end visit latency (executor only, no LLM): the paper's Task 1 as a
// single declarative call against the live PpointSim.
void BM_VisitTask1(benchmark::State& state) {
  dmi::ModelingOptions options;
  options.ripper_config.blocklist = {"Account"};
  apps::PpointSim scratch;
  ripper::GuiRipper rip(scratch, options.ripper_config);
  topo::NavGraph graph = rip.Rip();
  apps::PpointSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(graph, options));
  auto solid = session.ResolveTargetByNames({"Format Background Pane", "Solid fill"});
  auto blue = session.ResolveTargetByNames({"Fill Color", "Blue"});
  auto apply = session.ResolveTargetByNames({"Format Background Pane", "Apply to All"});
  for (auto _ : state) {
    app.ResetUiState();
    auto cmd = [](const dmi::ResolvedTarget& t) {
      dmi::VisitCommand c;
      c.target_id = t.id;
      c.entry_ref_ids = t.entry_ref_ids;
      return c;
    };
    benchmark::DoNotOptimize(
        session.VisitParsed({cmd(*solid), cmd(*blue), cmd(*apply)}));
  }
}
BENCHMARK(BM_VisitTask1)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
