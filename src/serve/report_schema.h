// serve::ReportSchema — the one versioned JSON contract every DMI front end
// emits (DESIGN.md §16).
//
// Before this layer, `dmi_run --report-json` and the (then hypothetical)
// service responses were two divergent shapes. Now both compose from the
// same building blocks, all stamped `schema_version: 1`:
//
//   support::StatusJson (trace_export.h) — {code, message, error_detail?};
//                    the one encoding of support::Status + ErrorDetail.
//   RunJson        — one run: success, llm_calls, core_calls, sim_time_s,
//                    prompt/output tokens, ui_actions, run_id, cause,
//                    final_status, flight_recorder (failed runs only),
//                    visit_report (when captured).
//   SuiteReportJson— the dmi_run suite report: header + tasks[] of runs[]
//                    (each a RunJson) + optional fleet_batching block.
//   ResponseJson / ParseRequest — the dmi_serve wire messages; a Response
//                    embeds the same RunJson as the suite report, so a fleet
//                    aggregator can mix both sources without translation.
//
// The suite-report shape is pinned by a golden byte-stability test
// (tests/serve_test.cc) — changing a field name or ordering is a schema
// version bump, not a silent fork.
#ifndef SRC_SERVE_REPORT_SCHEMA_H_
#define SRC_SERVE_REPORT_SCHEMA_H_

#include <cstdint>
#include <string>

#include "src/agent/batch_scheduler.h"
#include "src/agent/run_result.h"
#include "src/agent/task_runner.h"
#include "src/json/json.h"
#include "src/support/status.h"

namespace serve {

// The wire/report schema version. Bump only with a compatibility note in
// DESIGN.md §16; consumers reject versions they do not understand.
inline constexpr int64_t kSchemaVersion = 1;

// ----- requests -------------------------------------------------------------------

// One serving request = one session = one run of one task. Kept deliberately
// small: per-request mode/policy overrides are a non-goal — the daemon's
// ServiceConfig fixes the setting, requests pick a task, tenant, and seed.
struct Request {
  uint64_t request_id = 0;  // caller-chosen correlation id, echoed back
  std::string tenant;       // empty -> "default"
  std::string task_id;      // workload task id ("W3", "E7", ...)
  uint64_t seed = 1;
};

// {"schema_version":1,"request_id":7,"tenant":"acme","task":"W3","seed":42}
jsonv::Value RequestJson(const Request& request);
// Typed parse: kInvalidArgument on malformed JSON, a missing/unsupported
// schema_version, or a missing task.
support::Result<Request> ParseRequest(const std::string& text);

// ----- responses ------------------------------------------------------------------

struct Response {
  uint64_t request_id = 0;
  std::string tenant;
  std::string task_id;
  uint64_t run_id = 0;  // 0 when the session never ran (rejected/cancelled)
  // Ok when the session ran to a verdict (result is valid, whether or not
  // the run itself succeeded); a typed admission/cancellation error
  // otherwise (kResourceExhausted, kCancelled, kNotFound, ...).
  support::Status status;
  agentsim::RunResult result;
  // Wall-clock serving latencies (queue wait, submit-to-response).
  double queue_ms = 0.0;
  double total_ms = 0.0;
};

jsonv::Value ResponseJson(const Response& response);

// ----- shared fragments -----------------------------------------------------------

jsonv::Value RunJson(const agentsim::RunResult& run);

// The machine-readable suite report (dmi_run --report-json). `batch_stats`
// carries the fleet-mode continuous-batching economics; pass nullptr when
// batching is off.
jsonv::Value SuiteReportJson(const agentsim::RunConfig& config,
                             const agentsim::SuiteResult& result,
                             const agentsim::BatchScheduler::Stats* batch_stats);

}  // namespace serve

#endif  // SRC_SERVE_REPORT_SCHEMA_H_
