// §5.5 reproduction: ablation — declarative interface vs static knowledge.
//
// Providing the DMI navigation forest in the prompt while disabling the
// declarative interface (UFO2-as + forest) isolates the knowledge effect:
// the paper finds no significant change for GPT-5 (SR 42% vs 44.4%) but a
// modest gain for GPT-5-mini (23.5% vs 17.3%), while full DMI yields much
// larger gains for both — the interface, not the knowledge, drives the win.
#include <cstdio>

#include "bench/bench_common.h"

namespace {

void Row(agentsim::TaskRunner& runner, const std::vector<workload::Task>& tasks,
         const char* label, const char* mode, const char* model, double paper_sr,
         double paper_steps) {
  dmi::ServiceConfig service;
  service.mode = mode;
  service.model = model;
  service.repeats = 3;
  agentsim::SuiteResult r = runner.RunSuite(tasks, bench::Resolve(service));
  std::printf("  %-22s %6.1f%% %7.2f   | paper: %5.1f%% %6.2f\n", label,
              100.0 * r.SuccessRate(), r.AvgStepsSuccessful(), paper_sr, paper_steps);
}

}  // namespace

int main() {
  bench::PrintHeader("Section 5.5: ablation — interface vs static knowledge");
  agentsim::TaskRunner runner;
  auto tasks = workload::BuildOsworldWSuite();

  std::printf("GPT-5 (medium reasoning):\n");
  std::printf("  %-22s %7s %7s\n", "setting", "SR", "steps");
  bench::PrintRule();
  Row(runner, tasks, "GUI-only", "gui", "gpt5", 44.4, 8.16);
  Row(runner, tasks, "GUI-only + forest", "forest", "gpt5", 42.0, 8.41);
  Row(runner, tasks, "GUI+DMI (full)", "dmi", "gpt5", 74.1, 4.61);

  std::printf("\nGPT-5-mini (medium reasoning):\n");
  std::printf("  %-22s %7s %7s\n", "setting", "SR", "steps");
  bench::PrintRule();
  Row(runner, tasks, "GUI-only", "gui", "mini", 17.3, 7.14);
  Row(runner, tasks, "GUI-only + forest", "forest", "mini", 23.5, 6.32);
  Row(runner, tasks, "GUI+DMI (full)", "dmi", "mini", 43.2, 4.43);

  std::printf("\nshape check: forest-as-knowledge barely moves the strong model but helps\n"
              "the small one; the full declarative interface dominates both — the\n"
              "interface design, not the static knowledge, is the performance driver.\n");
  return 0;
}
