// Design-choice ablation: DMI's robustness machinery (§3.4).
//
// Toggles the executor's three robustness mechanisms — non-leaf filtering,
// fuzzy control matching, failure retries — on/off and sweeps instability
// levels, measuring the GUI+DMI success rate (GPT-5 medium). Shows what each
// mechanism buys under real-world UI hazards.
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  bench::PrintHeader("Ablation: DMI robustness mechanisms under instability");
  agentsim::TaskRunner runner;
  auto tasks = workload::BuildOsworldWSuite();

  struct Variant {
    const char* label;
    bool filter, fuzzy, retry;
  };
  const Variant variants[] = {
      {"full DMI (all on)", true, true, true},
      {"no non-leaf filter", false, true, true},
      {"no fuzzy matching", true, false, true},
      {"no retries", true, true, false},
      {"all off", false, false, false},
  };
  const char* const levels[] = {"none", "typical", "harsh"};

  std::printf("  %-22s %10s %10s %10s\n", "executor variant", "none", "typical", "harsh");
  bench::PrintRule();
  for (const Variant& v : variants) {
    std::printf("  %-22s", v.label);
    for (const char* level : levels) {
      dmi::ServiceConfig service;
      service.mode = "dmi";
      service.model = "gpt5";
      service.repeats = 2;
      service.instability = level;
      service.enable_nonleaf_filter = v.filter;
      service.enable_fuzzy_match = v.fuzzy;
      service.enable_retry = v.retry;
      agentsim::SuiteResult r = runner.RunSuite(tasks, bench::Resolve(service));
      double actions = 0;
      int n = 0;
      for (const auto& rec : r.records) {
        for (const auto& run : rec.runs) {
          if (run.success) {
            actions += static_cast<double>(run.ui_actions);
            ++n;
          }
        }
      }
      std::printf(" %5.1f%%/%4.1f", 100.0 * r.SuccessRate(), n ? actions / n : 0.0);
    }
    std::printf("\n");
  }
  std::printf("  (cells: success rate / avg executed UI actions per successful run)\n");
  std::printf("\nshape check: fuzzy matching carries most of the SR robustness under\n"
              "name-variation hazards; retries absorb slow loads; the non-leaf filter\n"
              "mostly prevents wasted actions from slipped navigation commands (compare\n"
              "the action column) and guards against stray state disruption.\n");
  return 0;
}
