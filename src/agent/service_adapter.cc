#include "src/agent/service_adapter.h"

#include <cassert>

namespace agentsim {
namespace {

// A --policy preset (DESIGN.md §11): a hazard level paired with the retry and
// deadline posture calibrated for it.
struct Preset {
  const char* name;
  gsim::InstabilityConfig instability;
  // Serves both the visit executor and the interaction interfaces. Unset =
  // the executor's fixed 3-retry loop and fail-fast interactions.
  support::RetryPolicy retry;
  uint64_t run_deadline_ticks = 0;  // 0 = unlimited
};

// The presets, calm to adversarial, looked up by name; the --instability
// override reads only their hazard level. Retry schedules stiffen with the
// hazard level, and only Hostile bounds the run with a deadline.
const Preset& PresetByName(const std::string& name) {
  static const Preset kPresets[] = {
      {"none", gsim::InstabilityConfig::None(), {}, 0},
      {"typical", gsim::InstabilityConfig::Typical(), {}, 0},
      // Slow loads stretch to 4 ticks under Harsh; exponential backoff reaches
      // them in fewer attempts than the default 1-tick fixed loop.
      {"harsh", gsim::InstabilityConfig::Harsh(),
       support::RetryPolicy::ExponentialJitter(/*max_attempts=*/4, /*initial_ticks=*/1,
                                               /*multiplier=*/2.0, /*max_ticks=*/8,
                                               /*jitter=*/0.0),
       0},
      // Freeze windows last 5 ticks and pattern windows 3; the schedule must
      // be able to outwait one full window within its attempt budget. Jitter
      // decorrelates retries from the fault windows (drawn from the seeded
      // run RNG, so still deterministic per seed). The deadline keeps a
      // hostile run from stalling unboundedly.
      {"hostile", gsim::InstabilityConfig::Hostile(),
       support::RetryPolicy::ExponentialJitter(/*max_attempts=*/5, /*initial_ticks=*/1,
                                               /*multiplier=*/2.0, /*max_ticks=*/12,
                                               /*jitter=*/0.25),
       600},
  };
  for (const Preset& preset : kPresets) {
    if (name == preset.name) {
      return preset;
    }
  }
  return kPresets[1];  // typical; unreachable for a validated name
}

}  // namespace

RunConfig RunConfigFromService(const dmi::ServiceConfig& config) {
  assert(config.Validate().ok() && "RunConfigFromService on unvalidated config");
  RunConfig run;
  if (config.mode == "gui") {
    run.mode = InterfaceMode::kGuiOnly;
  } else if (config.mode == "forest") {
    run.mode = InterfaceMode::kGuiOnlyForest;
  } else {
    run.mode = InterfaceMode::kGuiPlusDmi;
  }
  if (config.model == "gpt5min") {
    run.profile = LlmProfile::Gpt5Minimal();
  } else if (config.model == "mini") {
    run.profile = LlmProfile::Gpt5MiniMedium();
  } else {
    run.profile = LlmProfile::Gpt5Medium();
  }
  run.seed = config.seed;
  run.repeats = config.repeats;
  run.step_cap = config.step_cap;
  run.workers = config.workers;
  run.capture_report_json = config.capture_report_json;
  run.visit.enable_nonleaf_filter = config.enable_nonleaf_filter;
  run.visit.enable_fuzzy_match = config.enable_fuzzy_match;
  run.visit.enable_retry = config.enable_retry;
  // No preset named: Typical hazards with no retry schedule or deadline, the
  // RunConfig defaults.
  if (!config.policy.empty()) {
    const Preset& preset = PresetByName(config.policy);
    run.instability = preset.instability;
    run.visit.retry = preset.retry;
    run.interaction_retry = preset.retry;
    run.run_deadline_ticks = preset.run_deadline_ticks;
    run.policy_label = preset.name;
  }
  if (!config.instability.empty()) {
    // --policy adopts the whole posture; --instability afterwards overrides
    // just the hazard level.
    run.instability = PresetByName(config.instability).instability;
  }
  if (config.batch_size > 0) {
    run.batch.enabled = true;
    run.batch.max_batch_size = static_cast<size_t>(config.batch_size);
  }
  return run;
}

}  // namespace agentsim
