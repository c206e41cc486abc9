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
//
// Locating a path node is a pure function of the UI generation and the node,
// so the executor keeps its last answer: the forward pass re-asks for the
// node the backward match just found, and the next step for the node the
// post-click probe just found, and both are served without a search
// (visit.locate_memo_hits). A memo hit still counts as an attempt in every
// retry loop; only the search is skipped. The fuzzy fallback scores a
// candidate's ancestor-path term only when that term could still make it the
// answer.
#ifndef SRC_DMI_VISIT_H_
#define SRC_DMI_VISIT_H_

#include <string>
#include <vector>

#include "src/describe/catalog.h"
#include "src/dmi/command.h"
#include "src/gui/application.h"
#include "src/support/retry.h"
#include "src/support/rng.h"
#include "src/support/status.h"

namespace support {
class FlightRecorder;
}  // namespace support

namespace dmi {

struct VisitConfig {
  // Robustness toggles (dmi_paper's robustness ablation switches them off).
  bool enable_nonleaf_filter = true;
  bool enable_fuzzy_match = true;
  bool enable_retry = true;
  // Typed retry schedule (DESIGN.md §11). Left unset (the default), the
  // executor retries 3 times, one tick apart (none when enable_retry is
  // off); the harsh and hostile presets set exponential backoff with jitter.
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

  // Finds the control in the topmost window that stands for the graph node,
  // exact id first, then fuzzy; nullptr when none does. A pure query of the
  // current UI state: a repeat call at the same UI generation for the same
  // node returns the last answer without searching (visit.locate_memo_hits).
  // `info` must be a node of the catalog's DAG, since the memo keys on its
  // address.
  gsim::Control* LocateControl(const topo::NodeInfo& info);

 private:
  // Navigates along the resolved graph-node path and clicks each step.
  support::Status NavigatePath(const std::vector<int>& path, std::string& detail);

  // LocateControl's search, without the memo.
  gsim::Control* SearchTopWindow(const topo::NodeInfo& info);
  gsim::Control* LocateControlWithRetry(const topo::NodeInfo& info, std::string& detail);

  // The typed schedule actually used: config_.retry when set, else the
  // fixed 3-retry loop (no retries when enable_retry is off).
  support::RetryPolicy EffectiveRetryPolicy() const;

  bool DeadlineExpired() const { return deadline_.Expired(app_->current_tick()); }

  gsim::Application* app_;
  const desc::TopologyCatalog* catalog_;
  VisitConfig config_;
  support::Deadline deadline_;  // default: unlimited
  support::Rng retry_rng_{0x9e3779b97f4a7c15ULL};
  // Robustness accounting for the command currently executing (feeds the
  // robust.* metrics and ErrorDetail attempts/backoff fields).
  int cmd_attempts_ = 0;
  uint64_t cmd_backoff_ticks_ = 0;
  support::FlightRecorder* flight_ = nullptr;  // borrowed; null = off
  // LocateControl's last answer and the (UI generation, node) it is for.
  uint64_t memo_generation_ = 0;
  const topo::NodeInfo* memo_node_ = nullptr;  // null: no answer yet
  gsim::Control* memo_control_ = nullptr;
};

}  // namespace dmi

#endif  // SRC_DMI_VISIT_H_
