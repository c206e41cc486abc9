// dmi::Policy: the consolidated per-run robustness policy (DESIGN.md §11).
//
// Historically the knobs were scattered: VisitConfig (retry/fuzzy/filter),
// InteractionConfig (payload caps), the instability level on RunConfig, and —
// with the robustness layer — typed retry schedules and a per-run tick
// deadline. Policy aggregates all of them behind named presets that mirror
// gsim::InstabilityConfig::{None,Typical,Harsh,Hostile}: the preset pairs a
// hazard level with the retry/deadline posture calibrated for it. Policy
// holds VisitConfig and InteractionConfig by value; the run configuration
// copies them out.
#ifndef SRC_DMI_POLICY_H_
#define SRC_DMI_POLICY_H_

#include <cstdint>

#include "src/dmi/interaction.h"
#include "src/dmi/visit.h"
#include "src/gui/instability.h"
#include "src/support/retry.h"

namespace dmi {

struct Policy {
  // Preset name ("none", "typical", "harsh", "hostile"); empty for a policy
  // assembled by hand. Used as the `policy` label on agent.* metrics.
  const char* name = "";
  VisitConfig visit;
  InteractionConfig interaction;
  // Hazard level this run faces (drives the InstabilityInjector).
  gsim::InstabilityConfig instability;
  // Per-run tick budget; 0 = unlimited.
  uint64_t run_deadline_ticks = 0;

  // Presets, from calm to adversarial. Retry schedules stiffen with the
  // hazard level; only Hostile bounds the run with a deadline.
  static Policy None();
  static Policy Typical();
  static Policy Harsh();
  static Policy Hostile();
};

}  // namespace dmi

#endif  // SRC_DMI_POLICY_H_
