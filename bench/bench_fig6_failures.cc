// Figure 6 reproduction: failure-cause distribution (policy vs mechanism).
//
// Paper (GPT-5 medium): with GUI+DMI ~81% of failures are policy-level
// (ambiguous tasks 42.9%, control-semantics misreads 28.6%, weak visual
// semantics 14.3%, subtle semantics 9.5%, topology 4.8%); the GUI-only
// baseline is dominated by mechanism failures (navigation 14/45,
// composite interaction 7/45, plus overlapping policy errors).
#include <cstdio>

#include "bench/bench_common.h"

namespace {

void Distribution(const char* label, const agentsim::SuiteResult& r) {
  auto dist = r.FailureDistribution();
  int policy = 0;
  int mechanism = 0;
  for (const auto& [cause, n] : dist) {
    if (agentsim::IsPolicyFailure(cause)) {
      policy += n;
    } else {
      mechanism += n;
    }
  }
  const int total = policy + mechanism;
  std::printf("\n%s: %d failures over %d runs\n", label, total, r.TotalRuns());
  bench::PrintRule();
  for (const auto& [cause, n] : dist) {
    std::printf("  [%9s] %-45s %3d  (%4.1f%%)\n",
                agentsim::IsPolicyFailure(cause) ? "policy" : "mechanism",
                std::string(agentsim::FailureCauseName(cause)).c_str(), n,
                total > 0 ? 100.0 * n / total : 0.0);
  }
  if (total > 0) {
    std::printf("  policy: %.1f%%   mechanism: %.1f%%\n", 100.0 * policy / total,
                100.0 * mechanism / total);
  }
}

}  // namespace

int main() {
  bench::PrintHeader("Figure 6: failure-cause distribution (GPT-5 medium)");
  agentsim::TaskRunner runner;
  auto tasks = workload::BuildOsworldWSuite();

  dmi::ServiceConfig service;
  service.model = "gpt5";
  service.repeats = 3;

  service.mode = "gui";
  agentsim::SuiteResult gui = runner.RunSuite(tasks, bench::Resolve(service));
  service.mode = "dmi";
  agentsim::SuiteResult dmi = runner.RunSuite(tasks, bench::Resolve(service));

  Distribution("GUI-only baseline (paper: mechanism-dominated)", gui);
  Distribution("GUI+DMI (paper: ~81% policy, ~19% mechanism)", dmi);

  std::printf("\nshape check: DMI removes most mechanism failures (navigation, composite\n"
              "interaction, grounding), re-centering errors at the policy level.\n");
  return 0;
}
