// Fault-domain ablation: the robustness layer under escalating hazards
// (DESIGN.md §11).
//
// Sweeps the dmi::Policy presets None -> Typical -> Harsh -> Hostile. Each
// preset pairs an instability level with the retry/deadline posture
// calibrated for it: Hostile adds the new fault domains (stale element
// references, transient pattern failures, dropped window events, app-freeze
// windows) plus a per-run tick deadline, and leans on exponential backoff
// with jitter to survive them. Reports the GUI+DMI success rate per preset
// alongside the robust.* counters the layer emits. The rates are exact for a
// fixed seed; HostileSuite.FaultPresetsHoldTheirSuccessFloors in
// tests/robustness_test.cc holds each one to a floor.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/dmi/policy.h"
#include "src/support/metrics.h"

int main() {
  bench::PrintHeader("Ablation: fault domains vs. the robustness layer");
  agentsim::TaskRunner runner;
  auto tasks = workload::BuildOsworldWSuite();

  struct Level {
    const char* label;
    dmi::Policy policy;
  };
  const Level levels[] = {
      {"none", dmi::Policy::None()},
      {"typical", dmi::Policy::Typical()},
      {"harsh", dmi::Policy::Harsh()},
      {"hostile", dmi::Policy::Hostile()},
  };

  std::printf("  %-10s %8s %8s %10s %10s %10s %10s\n", "preset", "SR", "steps",
              "clk-retry", "ix-retry", "ddl-skip", "faults");
  bench::PrintRule();

  for (const Level& level : levels) {
    const auto before = support::MetricsRegistry::Global().Snapshot();
    agentsim::RunConfig config;
    config.mode = agentsim::InterfaceMode::kGuiPlusDmi;
    config.profile = agentsim::LlmProfile::Gpt5Medium();
    config.repeats = 2;
    config.ApplyPolicy(level.policy);
    agentsim::SuiteResult r = runner.RunSuite(tasks, config);
    const auto after = support::MetricsRegistry::Global().Snapshot();
    auto delta = [&](const char* name) {
      return after.CounterValue(name) - before.CounterValue(name);
    };
    const uint64_t click_retries = delta("robust.click_retries");
    const uint64_t ix_retries = delta("robust.interaction_retries");
    const uint64_t ddl_skips = delta("robust.deadline_skipped_commands");
    const uint64_t faults = delta("robust.fault_stale_ref") + delta("robust.fault_pattern") +
                            delta("robust.fault_event_drop") + delta("robust.fault_freeze");
    std::printf("  %-10s %7.1f%% %8.2f %10llu %10llu %10llu %10llu\n", level.label,
                100.0 * r.SuccessRate(), r.AvgStepsSuccessful(),
                static_cast<unsigned long long>(click_retries),
                static_cast<unsigned long long>(ix_retries),
                static_cast<unsigned long long>(ddl_skips),
                static_cast<unsigned long long>(faults));
  }
  std::printf(
      "  (SR is exact for a fixed seed; the injected fault domains only fire\n"
      "   at the hostile preset, where retries + the per-run deadline keep the\n"
      "   suite degrading gracefully instead of crashing or hanging)\n");
  return 0;
}
