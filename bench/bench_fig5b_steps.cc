// Figure 5b reproduction: step analysis.
//
//   (1) normalized steps on the intersection of tasks solved by all three
//       GPT-5-medium methods (GUI-only, Ablation = GUI-only+forest, GUI+DMI);
//   (2) core-step distribution for GUI+DMI (core = calls minus the fixed
//       3-step framework overhead);
//   (3) one-shot completion: share of successful DMI trials finishing the
//       user intent in a single core call (<= 4 total steps; paper: >61%).
#include <cstdio>
#include <map>
#include <set>

#include "bench/bench_common.h"

int main() {
  bench::PrintHeader("Figure 5b: steps, normalized steps, one-shot completion");
  agentsim::TaskRunner runner;
  auto tasks = workload::BuildOsworldWSuite();

  dmi::ServiceConfig service;
  service.model = "gpt5";
  service.repeats = 3;
  service.mode = "gui";
  agentsim::SuiteResult r_gui = runner.RunSuite(tasks, bench::Resolve(service));
  service.mode = "forest";
  agentsim::SuiteResult r_abl = runner.RunSuite(tasks, bench::Resolve(service));
  service.mode = "dmi";
  agentsim::SuiteResult r_dmi = runner.RunSuite(tasks, bench::Resolve(service));

  // Intersection of tasks solved (majority of trials) by all three methods.
  std::set<std::string> common;
  for (const std::string& id : r_gui.SolvedTasks()) {
    if (r_abl.SolvedTasks().count(id) > 0 && r_dmi.SolvedTasks().count(id) > 0) {
      common.insert(id);
    }
  }
  std::printf("Normalized steps on the %zu-task intersection (paper: 7.94 / 8.58 / 4.60):\n",
              common.size());
  bench::PrintRule();
  std::printf("  %-18s %6.2f\n", "GUI-only", r_gui.AvgStepsOnTasks(common));
  std::printf("  %-18s %6.2f\n", "Ablation(forest)", r_abl.AvgStepsOnTasks(common));
  std::printf("  %-18s %6.2f\n", "GUI+DMI", r_dmi.AvgStepsOnTasks(common));

  // Core-step distribution for DMI successes.
  std::map<int, int> dist;
  int successes = 0;
  for (const auto& rec : r_dmi.records) {
    for (const auto& run : rec.runs) {
      if (run.success) {
        ++dist[run.core_calls];
        ++successes;
      }
    }
  }
  std::printf("\nGUI+DMI core-call distribution over %d successful trials:\n", successes);
  bench::PrintRule();
  for (const auto& [core, n] : dist) {
    std::printf("  %d core call%s (= %d total steps): %3d trials  %s\n", core,
                core == 1 ? " " : "s", core + agentsim::kFrameworkOverheadSteps, n,
                std::string(static_cast<size_t>(n), '#').c_str());
  }
  std::printf("\nOne-shot completion (<= 4 steps): %.1f%% of successful DMI trials "
              "(paper: > 61%%)\n", 100.0 * r_dmi.OneShotShare());
  std::printf("\nAlso: every task solvable by GUI-only remains solvable with GUI+DMI: ");
  bool remain = true;
  for (const std::string& id : r_gui.SolvableTasks()) {
    remain &= r_dmi.SolvableTasks().count(id) > 0;
  }
  std::printf("%s (paper: holds)\n", remain ? "holds" : "VIOLATED");
  return 0;
}
