// Table 3 reproduction: end-to-end results across interfaces and models.
//
// Eight settings: {GUI-only, GUI-only+forest, GUI+DMI} x {GPT-5 medium} plus
// {GUI-only, GUI+DMI} x {GPT-5 minimal} plus {GUI-only, GUI-only+forest,
// GUI+DMI} x {GPT-5-mini medium}. 27 tasks, 3 trials each, metrics averaged
// over successful runs (the paper's convention).
#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  // Optional worker count for the suite fan-out: `bench_table3_endtoend [N]`
  // (0 = one worker per hardware thread). Results are identical for any N;
  // only the wall clock changes.
  int workers = 1;
  if (argc > 1) {
    workers = std::atoi(argv[1]);
  }
  bench::PrintHeader("Table 3: results across interfaces and models");
  std::printf("  suite workers: %d%s\n", workers, workers == 0 ? " (hardware)" : "");
  agentsim::TaskRunner runner;
  auto tasks = workload::BuildOsworldWSuite();

  struct PaperRow {
    double sr, steps, time;
  };
  const PaperRow paper[] = {
      {44.4, 8.16, 392}, {42.0, 8.41, 353}, {74.1, 4.61, 239},
      {23.5, 8.42, 251}, {40.7, 5.52, 140},
      {17.3, 7.14, 171}, {23.5, 6.32, 150}, {43.2, 4.43, 167},
  };

  std::printf("  %-10s %-11s %-10s %-9s | %6s %6s %8s | %6s %6s %8s\n", "interface",
              "knowledge", "model", "reasoning", "SR%", "steps", "time(s)", "SR%*",
              "steps*", "time(s)*");
  std::printf("  %74s (* = paper)\n", "");
  bench::PrintRule();

  auto settings = bench::Table3Settings();
  for (size_t i = 0; i < settings.size(); ++i) {
    const bench::Setting& s = settings[i];
    dmi::ServiceConfig service;
    service.mode = s.mode;
    service.model = s.model;
    service.repeats = 3;
    service.workers = workers;
    const agentsim::RunConfig config = bench::Resolve(service);
    agentsim::SuiteResult r = runner.RunSuite(tasks, config);
    std::printf("  %-10s %-11s %-10s %-9s | %6.1f %6.2f %8.0f | %6.1f %6.2f %8.0f\n",
                s.label, s.knowledge, config.profile.model.c_str(),
                config.profile.reasoning.c_str(), 100.0 * r.SuccessRate(),
                r.AvgStepsSuccessful(), r.AvgTimeSuccessful(), paper[i].sr,
                paper[i].steps, paper[i].time);
    if (i == 2 || i == 4) {
      bench::PrintRule();
    }
  }

  std::printf("\nshape check: within each model tier, GUI+DMI raises SR (paper: 1.67x for\n"
              "GPT-5 medium), cuts steps by ~40%% and completion time by ~35-45%%; the\n"
              "forest-as-knowledge row changes little for the strong model but helps the\n"
              "small one.\n");
  return 0;
}
