// The visit executor: access declaration (paper §3.4, §4.3).
//
// Pipeline per call:
//   1. Parse the JSON command array.
//   2. Filter: commands targeting non-leaf (navigation) nodes are discarded —
//      DMI entirely takes over navigation — and shortcut commands immediately
//      following a discarded command are dropped too.
//   3. Resolve each retained target to its unique root-to-target path.
//   4. Navigate: fetch the topmost valid window, match the path from the end
//      backward against the visible hierarchy; if nothing matches, close the
//      window (OK > Close > Cancel); then proceed forward, clicking each path
//      node, with fuzzy matching and bounded retries for slow controls.
//   5. Interact: the final click (plus text input for access-and-input).
// Shortcut commands are executed verbatim and never retried (repeating an
// ENTER has side effects).
#ifndef SRC_DMI_VISIT_H_
#define SRC_DMI_VISIT_H_

#include <string>
#include <vector>

#include "src/describe/catalog.h"
#include "src/dmi/command.h"
#include "src/gui/application.h"
#include "src/ripper/visible_index.h"
#include "src/support/retry.h"
#include "src/support/rng.h"
#include "src/support/status.h"

namespace support {
class FlightRecorder;
}  // namespace support

namespace dmi {

struct VisitConfig {
  // Robustness toggles (ablated in bench_ablation_robustness).
  bool enable_nonleaf_filter = true;
  bool enable_fuzzy_match = true;
  bool enable_retry = true;
  double fuzzy_threshold = 0.72;
  // How many windows the executor may close while searching for the path.
  int max_window_closes = 4;
  // Typed retry schedule (DESIGN.md §11). Left unset (the default), the
  // executor retries 3 times, one tick apart (none when enable_retry is
  // off); set it (e.g. via dmi::Policy) for exponential backoff with jitter.
  support::RetryPolicy retry;
};

struct CommandReport {
  VisitCommand command;
  support::Status status;
  bool filtered = false;  // dropped by non-leaf filtering
  // Structured feedback for the LLM (control state, close actions, ...).
  std::string detail;
};

struct VisitReport {
  std::vector<CommandReport> commands;
  support::Status overall;  // OK iff every executed command succeeded
  bool was_further_query = false;
  std::string further_query_text;
  size_t filtered_count = 0;
  size_t ui_actions = 0;  // clicks + keys + text inputs performed

  // Rendered feedback for the LLM prompt. Byte-stable: this string is part
  // of the LLM-feedback contract (DESIGN.md §11) and ignores ErrorDetail.
  std::string Render() const;

  // Machine-readable mirror of Render(): a JSON object carrying every
  // per-command status including its structured ErrorDetail payload.
  // Round-trips through jsonv::Parse (emitted by `dmi_run --report-json`).
  std::string RenderJson() const;
};

class VisitExecutor {
 public:
  VisitExecutor(gsim::Application& app, const desc::TopologyCatalog& catalog,
                VisitConfig config);

  // Full pipeline from raw JSON.
  VisitReport Execute(const std::string& json_commands);

  // Pipeline from parsed commands (used by the simulated agent directly).
  VisitReport ExecuteParsed(std::vector<VisitCommand> commands);

  // Per-run tick budget (default: unlimited). Retry loops stop early and
  // commands past the budget report kDeadlineExceeded instead of running.
  void SetDeadline(support::Deadline deadline) { deadline_ = deadline; }
  const support::Deadline& deadline() const { return deadline_; }

  // Reseeds the backoff-jitter RNG (deterministic per run seed). Only drawn
  // when the retry policy carries jitter > 0, so legacy schedules consume no
  // randomness.
  void SeedRetryRng(uint64_t seed) { retry_rng_ = support::Rng(seed); }

  // Streams every executed command (with its final status + ErrorDetail) and
  // retry/backoff spending into the run's flight recorder (DESIGN.md §13).
  // Borrowed pointer owned by the runner; nullptr (the default) disables.
  void SetFlightRecorder(support::FlightRecorder* recorder) { flight_ = recorder; }
  support::FlightRecorder* flight_recorder() const { return flight_; }

 private:
  // Navigates along the resolved graph-node path and clicks each step.
  support::Status NavigatePath(const std::vector<int>& path, std::string& detail);

  // Finds the visible control matching the graph node, exact-first then
  // fuzzy. Returns nullptr when not found.
  gsim::Control* LocateControl(const topo::NodeInfo& info);
  gsim::Control* LocateControlWithRetry(const topo::NodeInfo& info, std::string& detail);

  // The typed schedule actually used: config_.retry when set, else the
  // fixed 3-retry loop (no retries when enable_retry is off).
  support::RetryPolicy EffectiveRetryPolicy() const;

  bool DeadlineExpired() const { return deadline_.Expired(app_->current_tick()); }

  gsim::Application* app_;
  const desc::TopologyCatalog* catalog_;
  VisitConfig config_;
  ripper::VisibleIndex index_;
  support::Deadline deadline_;  // default: unlimited
  support::Rng retry_rng_{0x9e3779b97f4a7c15ULL};
  // Robustness accounting for the command currently executing (feeds the
  // robust.* metrics and ErrorDetail attempts/backoff fields).
  int cmd_attempts_ = 0;
  uint64_t cmd_backoff_ticks_ = 0;
  support::FlightRecorder* flight_ = nullptr;  // borrowed; null = off
};

}  // namespace dmi

#endif  // SRC_DMI_VISIT_H_
