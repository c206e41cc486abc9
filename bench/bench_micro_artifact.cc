// Microbenchmark: binary model artifacts — compile once, cold-load
// everywhere (DESIGN.md §14).
//
// Two ways a fresh process can obtain a CompiledModel, per app kind:
//   recompile    in-memory pipeline over an already-ripped graph — the
//                compile stage of ModelRegistry::Acquire's fallback when an
//                artifact is missing or rejected
//   cold_load    read + checksum + index fixup of the binary artifact
//
// Gate: cold_load must be at least 2x faster than recompile for every app
// kind, and the loaded model must be byte-identical to the compiled one. A
// load path that degenerates into a recompile collapses the ratio to ~1x.
// Each timing is the minimum over its iterations (standard microbench
// practice: the min is the least noise-contaminated estimate of the true
// cost). Results land in the "micro_artifact" section of BENCH_perf.json;
// tools/check_bench_regression.py holds the floors from
// bench/BENCH_baseline.json.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench/bench_common.h"
#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/dmi/compiled_model.h"
#include "src/dmi/model_artifact.h"
#include "src/ripper/ripper.h"
#include "src/support/binio.h"
#include "src/workload/tasks.h"

namespace {

std::unique_ptr<gsim::Application> MakeApp(workload::AppKind kind) {
  switch (kind) {
    case workload::AppKind::kWord:
      return std::make_unique<apps::WordSim>();
    case workload::AppKind::kExcel:
      return std::make_unique<apps::ExcelSim>();
    case workload::AppKind::kPpoint:
      return std::make_unique<apps::PpointSim>();
  }
  return nullptr;
}

struct ArtifactPerf {
  std::string app;
  double recompile_ms = 0;
  double cold_load_ms = 0;
  double vs_recompile_speedup = 0;  // recompile_ms / cold_load_ms (gated)
  double artifact_bytes = 0;
  bool identical = false;
};

ArtifactPerf BenchArtifact(workload::AppKind kind) {
  ArtifactPerf perf;
  perf.app = workload::AppKindName(kind);

  dmi::ModelingOptions options;
  options.ripper_config.blocklist = {"Account"};
  std::unique_ptr<gsim::Application> scratch = MakeApp(kind);
  ripper::GuiRipper rip(*scratch, options.ripper_config);
  const topo::NavGraph graph = rip.Rip();

  std::shared_ptr<const dmi::CompiledModel> compiled =
      dmi::CompiledModel::Compile(graph, options, &rip.stats());

  const std::string artifact_path = std::string("bench_artifact_") + perf.app + ".dmim";
  dmi::ArtifactMeta meta{perf.app, "bench"};
  if (!dmi::SaveModelArtifact(*compiled, meta, artifact_path).ok()) {
    std::abort();
  }
  {
    auto bytes = support::ReadFileBytes(artifact_path);
    perf.artifact_bytes = bytes.ok() ? static_cast<double>(bytes->size()) : 0;
  }

  // Correctness first: the loaded model must be indistinguishable from the
  // compiled one — same static prompt bytes, same serializations, same
  // token counts.
  {
    auto loaded = dmi::LoadModelArtifact(artifact_path, options, &meta);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n", loaded.status().ToString().c_str());
      std::abort();
    }
    const dmi::CompiledModel& l = *loaded->model;
    perf.identical = l.static_prompt() == compiled->static_prompt() &&
                     l.static_prompt_tokens() == compiled->static_prompt_tokens() &&
                     l.catalog().FullText() == compiled->catalog().FullText() &&
                     l.catalog().CoreTokens() == compiled->catalog().CoreTokens() &&
                     l.catalog().FullTokens() == compiled->catalog().FullTokens();
  }

  constexpr int kRounds = 10;
  constexpr int kLoadItersPerRound = 10;

  // Minimum single-iteration time: on a shared machine the mean absorbs
  // scheduler noise on both sides of the ratio.
  auto min_iter_ms = [](int iters, auto&& body) {
    double best = 1e18;
    for (int i = 0; i < iters; ++i) {
      bench::WallTimer t;
      body();
      best = std::min(best, t.ElapsedMs());
    }
    return best;
  };

  // recompile and cold_load alternate within each round so both sides of
  // the gated ratio sample the same machine-speed window (a frequency dip
  // during only one phase would skew the ratio, not just the absolutes).
  perf.recompile_ms = 1e18;
  perf.cold_load_ms = 1e18;
  for (int round = 0; round < kRounds; ++round) {
    perf.recompile_ms = std::min(perf.recompile_ms, min_iter_ms(1, [&] {
      auto model = dmi::CompiledModel::Compile(graph, options);
      if (model->stats().core_tokens == 0) {
        std::abort();
      }
    }));
    perf.cold_load_ms = std::min(perf.cold_load_ms, min_iter_ms(kLoadItersPerRound, [&] {
      auto loaded = dmi::LoadModelArtifact(artifact_path, options);
      if (!loaded.ok() || loaded->model->static_prompt_tokens() == 0) {
        std::abort();
      }
    }));
  }
  perf.vs_recompile_speedup =
      perf.cold_load_ms > 0 ? perf.recompile_ms / perf.cold_load_ms : 1e9;
  std::remove(artifact_path.c_str());
  return perf;
}

}  // namespace

int main() {
  bench::PrintHeader("Micro-bench: binary model artifacts, cold-load vs recompile");
  bench::PerfRecorder recorder;

  const workload::AppKind kKinds[] = {workload::AppKind::kWord, workload::AppKind::kExcel,
                                      workload::AppKind::kPpoint};
  constexpr double kGate = 2.0;

  std::printf("  %-10s | %10s %10s | %8s | %9s %9s\n", "app", "recompile", "cold-load",
              "vs-comp", "artifact", "identical");
  std::printf("  %-10s | %10s %10s | %8s | %9s %9s\n", "", "(ms)", "(ms)", "(x)", "(KB)", "");
  bench::PrintRule();

  bool gate_ok = true;
  bool match_ok = true;
  jsonv::Array rows;
  for (workload::AppKind kind : kKinds) {
    ArtifactPerf p = BenchArtifact(kind);
    gate_ok = gate_ok && p.vs_recompile_speedup >= kGate;
    match_ok = match_ok && p.identical;
    std::printf("  %-10s | %10.3f %10.4f | %7.1fx | %9.0f %9s\n", p.app.c_str(),
                p.recompile_ms, p.cold_load_ms, p.vs_recompile_speedup,
                p.artifact_bytes / 1024.0, p.identical ? "yes" : "NO");
    jsonv::Object row;
    row["app"] = p.app;
    row["recompile_ms"] = jsonv::Value(p.recompile_ms);
    row["cold_load_ms"] = jsonv::Value(p.cold_load_ms);
    row["vs_recompile_speedup"] = jsonv::Value(p.vs_recompile_speedup);
    row["artifact_bytes"] = jsonv::Value(p.artifact_bytes);
    row["identical"] = jsonv::Value(p.identical);
    rows.push_back(jsonv::Value(std::move(row)));
  }

  jsonv::Object section;
  section["artifact"] = jsonv::Value(std::move(rows));
  section["vs_recompile_speedup_gate"] = jsonv::Value(kGate);
  section["gate_passed"] = jsonv::Value(gate_ok && match_ok);
  recorder.Set("micro_artifact", jsonv::Value(std::move(section)));
  recorder.SetMetricsSnapshot();
  recorder.Write();

  std::printf("\nloaded model == compiled model outputs: %s\n", match_ok ? "PASS" : "FAIL");
  std::printf(">=%.0fx cold-load vs in-memory recompile gate: %s\n", kGate,
              gate_ok ? "PASS" : "FAIL");
  return (gate_ok && match_ok) ? 0 : 1;
}
