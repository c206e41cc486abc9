// dmi::ServiceConfig: the one configuration surface for every DMI front end
// (DESIGN.md §16).
//
// Every run or serving set-up outside the tests is a ServiceConfig: dmi_run
// and dmi_serve parse their command lines into one (ApplyFlag handles the
// shared flag vocabulary), the paper report and the examples fill one in, and
// serve::SessionManager takes one. Validate() checks it once, and
// agentsim::RunConfigFromService resolves it once into the RunConfig the
// agent layer reads; the --policy presets are a table inside that resolver.
//
// The struct deliberately stores names (mode/model/policy presets) as
// validated strings rather than agent-layer enums so dmi_core stays
// independent of src/agent; Validate() is the single authority on the legal
// vocabulary and returns typed support::Status values (kInvalidArgument with
// the offending flag named) instead of exiting mid-parse.
#ifndef SRC_DMI_SERVICE_CONFIG_H_
#define SRC_DMI_SERVICE_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/support/status.h"

namespace dmi {

struct ServiceConfig {
  // ----- interface / model ---------------------------------------------------
  std::string mode = "dmi";    // gui | forest | dmi
  std::string model = "gpt5";  // gpt5 | gpt5min | mini

  // ----- robustness policy ---------------------------------------------------
  // Preset name ("", none, typical, harsh, hostile). Empty = Typical
  // instability with no retry schedule (the legacy default posture).
  std::string policy;
  // Hazard-level override applied after the policy preset ("" = keep the
  // preset's level): none | typical | harsh | hostile.
  std::string instability;

  // ----- run shape -----------------------------------------------------------
  uint64_t seed = 1;
  int repeats = 3;
  int step_cap = 30;

  // ----- §5.6 robustness toggles (the paper report's ablation; no flag) ------
  bool enable_nonleaf_filter = true;
  bool enable_fuzzy_match = true;
  bool enable_retry = true;

  // ----- fleet / perf knobs --------------------------------------------------
  int workers = 1;     // suite worker threads; 0 = one per hardware thread
  int batch_size = 0;  // fleet batching max batch size; 0 = batching off

  // ----- model store ---------------------------------------------------------
  std::string model_dir;  // empty = no artifact store
  std::string app_version = "1";

  // ----- telemetry -----------------------------------------------------------
  bool capture_report_json = false;

  // ----- serving knobs (dmi_serve only; ignored by batch front ends) ---------
  int max_in_flight = 4;     // concurrent sessions actually running
  int queue_capacity = 256;  // admitted-but-waiting sessions
  // Per-tenant quotas, the same for every tenant; 0 = unlimited.
  // tenant_max_concurrent caps a tenant's queued + running sessions.
  // tenant_token_budget caps its prompt + output tokens over completed
  // sessions: admission closes once the spend reaches it, and the session
  // that crosses the line completes (post-paid, like real token billing).
  int tenant_max_concurrent = 0;
  int64_t tenant_token_budget = 0;

  // Consumes one "--flag value" pair of the shared vocabulary. Returns false
  // when the flag is not a ServiceConfig flag (the caller then tries its
  // binary-local flags); returns true with *error set to a non-OK status when
  // the flag is recognized but the value is malformed. Vocabulary errors in
  // enum-like values (mode/model/policy names) are deferred to Validate() so
  // there is exactly one authority on legal names.
  bool ApplyFlag(const std::string& flag, const std::string& value,
                 support::Status* error);

  // Typed whole-config validation: kInvalidArgument naming the offending
  // field for vocabulary and range errors. Both binaries call this once after
  // parsing; everything downstream may assume a validated config.
  support::Status Validate() const;
};

}  // namespace dmi

#endif  // SRC_DMI_SERVICE_CONFIG_H_
