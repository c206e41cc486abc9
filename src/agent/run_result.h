// The outcome of one task run (one trial of one task under one setting).
#ifndef SRC_AGENT_RUN_RESULT_H_
#define SRC_AGENT_RUN_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/agent/failure.h"
#include "src/support/flight_recorder.h"
#include "src/support/status.h"

namespace agentsim {

// The UFO-2-like framework overhead: HostAgent decompose/open, AppAgent
// verify-and-handoff, HostAgent final verification (paper §5.3
// "One-shot task completion": 3 fixed steps around the core calls).
inline constexpr int kFrameworkOverheadSteps = 3;

struct RunResult {
  bool success = false;
  int llm_calls = 0;        // total, including the 3 framework steps
  int core_calls = 0;       // application-task calls only
  double sim_time_s = 0.0;  // simulated wall time (latencies + UI actions)
  size_t prompt_tokens = 0;
  size_t output_tokens = 0;
  size_t ui_actions = 0;  // concrete UI operations executed (clicks/keys/...)
  FailureCause cause = FailureCause::kNone;
  // Structured terminal status (DESIGN.md §11): Ok on success; on failure,
  // the status that killed the run, carrying its ErrorDetail payload
  // (offending control, required pattern, retryable flag, attempts consumed).
  support::Status final_status;
  // RenderJson() of the last visit report, captured only when the harness
  // asks for it (dmi_run --report-json). Empty otherwise.
  std::string report_json;
  // Causal telemetry (DESIGN.md §13). `run_id` keys this run's trace spans
  // and flight recorder; `flight` is the run's bounded event ring (commands,
  // statuses, retries, token counts, batch membership), null only when the
  // result did not come from the runner. Neither participates in
  // run-equivalence comparisons.
  uint64_t run_id = 0;
  std::shared_ptr<const support::FlightRecorder> flight;
};

}  // namespace agentsim

#endif  // SRC_AGENT_RUN_RESULT_H_
