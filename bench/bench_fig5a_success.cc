// Figure 5a reproduction: success-rate bars per setting (ASCII rendering).
#include <cstdio>
#include <string>

#include "bench/bench_common.h"

int main() {
  bench::PrintHeader("Figure 5a: success rate by interface and model");
  agentsim::TaskRunner runner;
  auto tasks = workload::BuildOsworldWSuite();

  for (const bench::Setting& s : bench::Table3Settings()) {
    dmi::ServiceConfig service;
    service.mode = s.mode;
    service.model = s.model;
    service.repeats = 3;
    const agentsim::RunConfig config = bench::Resolve(service);
    agentsim::SuiteResult r = runner.RunSuite(tasks, config);
    const double sr = 100.0 * r.SuccessRate();
    std::string bar(static_cast<size_t>(sr / 2.0), '#');
    std::printf("  %-10s %-11s %-18s %5.1f%% |%s\n", s.label, s.knowledge,
                (config.profile.model + " " + config.profile.reasoning).c_str(), sr,
                bar.c_str());
  }
  std::printf("\nshape check: the GUI+DMI bar dominates within every model tier.\n");
  return 0;
}
