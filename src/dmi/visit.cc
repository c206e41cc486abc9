#include "src/dmi/visit.h"

#include <algorithm>

#include "src/json/json.h"
#include "src/ripper/identifier.h"
#include "src/support/flight_recorder.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"
#include "src/support/trace_export.h"
#include "src/text/similarity.h"
#include "src/uia/control_type.h"

namespace dmi {
namespace {

// Minimum fuzzy-match score for a control to stand in for a renamed one.
constexpr double kFuzzyThreshold = 0.72;
// How many windows the executor may close while searching for the path.
constexpr int kMaxWindowCloses = 4;

const char* CommandKindName(VisitCommand::Kind kind) {
  switch (kind) {
    case VisitCommand::Kind::kAccess:
      return "access";
    case VisitCommand::Kind::kAccessInput:
      return "access_input";
    case VisitCommand::Kind::kShortcut:
      return "shortcut";
    case VisitCommand::Kind::kFurtherQuery:
      return "further_query";
  }
  return "unknown";
}

// Rebuilds a Status (code, message, fresh detail) so detail fields can be
// augmented without mutating the original's shared payload.
support::Status WithAugmentedDetail(const support::Status& status,
                                    support::ErrorDetail detail) {
  return support::Status(status.code(), status.message()).WithDetail(std::move(detail));
}

}  // namespace

std::string VisitReport::Render() const {
  std::string out;
  if (was_further_query) {
    return further_query_text;
  }
  for (const CommandReport& cr : commands) {
    out += cr.command.ToString();
    if (cr.filtered) {
      out += " -> filtered (navigation node; DMI handles navigation)";
    } else {
      out += " -> " + cr.status.ToString();
      if (!cr.detail.empty()) {
        out += " (" + cr.detail + ")";
      }
    }
    out += "\n";
  }
  return out;
}

std::string VisitReport::RenderJson() const {
  jsonv::Object root;
  root["was_further_query"] = was_further_query;
  if (was_further_query) {
    root["further_query_text"] = further_query_text;
  }
  root["overall"] = support::StatusJson(overall);
  root["filtered_count"] = static_cast<int64_t>(filtered_count);
  root["ui_actions"] = static_cast<int64_t>(ui_actions);
  jsonv::Array cmds;
  for (const CommandReport& cr : commands) {
    jsonv::Object c;
    c["command"] = cr.command.ToString();
    c["kind"] = CommandKindName(cr.command.kind);
    c["filtered"] = cr.filtered;
    c["status"] = support::StatusJson(cr.status);
    if (!cr.detail.empty()) {
      c["detail"] = cr.detail;
    }
    cmds.push_back(jsonv::Value(std::move(c)));
  }
  root["commands"] = std::move(cmds);
  return jsonv::Value(std::move(root)).Dump();
}

VisitExecutor::VisitExecutor(gsim::Application& app, const desc::TopologyCatalog& catalog,
                             VisitConfig config)
    : app_(&app), catalog_(&catalog), config_(config) {}

VisitReport VisitExecutor::Execute(const std::string& json_commands) {
  auto parsed = ParseVisitCommands(json_commands);
  if (!parsed.ok()) {
    VisitReport report;
    report.overall = parsed.status();
    return report;
  }
  return ExecuteParsed(std::move(*parsed));
}

gsim::Control* VisitExecutor::LocateControl(const topo::NodeInfo& info) {
  // Every change to what the search reads (windows, popups, reveals, names,
  // states) bumps the UI generation, so an answer holds for its generation.
  static support::Counter& memo_hits =
      support::MetricsRegistry::Global().GetCounter("visit.locate_memo_hits");
  const uint64_t generation = app_->ui_generation();
  if (memo_node_ == &info && memo_generation_ == generation) {
    memo_hits.Increment();
    return memo_control_;
  }
  memo_control_ = SearchTopWindow(info);
  memo_generation_ = generation;
  memo_node_ = &info;
  return memo_control_;
}

gsim::Control* VisitExecutor::SearchTopWindow(const topo::NodeInfo& info) {
  // The executor fetches the topmost valid window and all descendant
  // controls (§4.3) — lower windows are blocked while a dialog is up.
  gsim::Window* top = app_->TopWindow();
  if (top == nullptr) {
    return nullptr;
  }
  // Registry references resolved once; the increments are relaxed adds.
  static support::Counter& fast_path_hits =
      support::MetricsRegistry::Global().GetCounter("visit.locate_fast_path");
  static support::Counter& fallback_walks =
      support::MetricsRegistry::Global().GetCounter("visit.locate_fallback_walks");
  // O(1) exact-id fast path from the application's capture; the window
  // filter keeps the "search only the topmost valid window" scope (controls
  // carry their containing window, including adopted popups).
  gsim::Capture& capture = app_->capture();
  if (gsim::Control* exact = capture.FindByIdInWindow(info.control_id, top); exact != nullptr) {
    fast_path_hits.Increment();
    return exact;
  }
  if (!config_.enable_fuzzy_match) {
    return nullptr;  // no exact match and no fuzzy fallback: nothing to find
  }
  // Fuzzy fallback over the top window's slice of the same capture: the
  // entries a walk of the top window's tree would visit, with their ids and
  // ancestor paths already synthesized. The probe above keys on each control's
  // window(), the slice on subtree membership, so an exact id still wins
  // here first (in pre-order); otherwise the best same-type candidate by
  // name similarity (dominant) and ancestor-path token overlap.
  fallback_walks.Increment();
  const std::string query_path = ripper::ParseControlId(info.control_id).ancestor_path;
  gsim::Control* best_fuzzy = nullptr;
  double best_score = 0.0;
  for (const gsim::CaptureEntry& entry : capture.TopWindowEntries()) {
    if (entry.control_id == info.control_id) {
      return entry.control;
    }
    if (entry.control->Type() != info.type) {
      continue;
    }
    // The path term adds at most 0.2 (TokenSetRatio is at most 1, and IEEE
    // rounding is monotone), so it is scored only when the candidate could
    // then reach the threshold and beat the best so far. Skipping the others
    // keeps the answer: the first candidate with the top score, returned only
    // if that score reaches the threshold.
    const double name_term =
        0.8 * textutil::DecorationAwareScore(info.name, entry.control->Name());
    if (name_term + 0.2 < kFuzzyThreshold || name_term + 0.2 <= best_score) {
      continue;
    }
    const double score =
        name_term + 0.2 * textutil::TokenSetRatio(entry.ancestor_path(), query_path);
    if (score > best_score) {
      best_score = score;
      best_fuzzy = entry.control;
    }
  }
  if (best_fuzzy != nullptr && best_score >= kFuzzyThreshold) {
    return best_fuzzy;
  }
  return nullptr;
}

support::RetryPolicy VisitExecutor::EffectiveRetryPolicy() const {
  if (!config_.retry.unset()) {
    return config_.retry;
  }
  // No typed schedule: three extra attempts, one tick apart.
  constexpr int kDefaultRetries = 3;
  return support::RetryPolicy::FixedTicks(config_.enable_retry ? kDefaultRetries : 0);
}

gsim::Control* VisitExecutor::LocateControlWithRetry(const topo::NodeInfo& info,
                                                     std::string& detail) {
  gsim::Control* control = LocateControl(info);
  ++cmd_attempts_;
  if (control != nullptr) {
    return control;
  }
  // Deterministically expected controls can load slowly; retry under the
  // typed schedule, advancing the application's logical clock by the backoff
  // (paper §3.4 failure retry).
  const support::RetryPolicy policy = EffectiveRetryPolicy();
  int attempt = 1;
  while (control == nullptr && policy.ShouldRetry(attempt) && !DeadlineExpired()) {
    support::CountMetric("visit.locate_retries");
    const uint64_t backoff = policy.BackoffTicks(attempt, retry_rng_);
    for (uint64_t t = 0; t < backoff; ++t) {
      app_->Tick();
    }
    cmd_backoff_ticks_ += backoff;
    ++attempt;
    ++cmd_attempts_;
    control = LocateControl(info);
  }
  if (control != nullptr) {
    detail += "[located after retry] ";
  }
  return control;
}

support::Status VisitExecutor::NavigatePath(const std::vector<int>& path,
                                            std::string& detail) {
  support::TraceSpan span("visit.navigate", "visit");
  span.AddArg("path_len", static_cast<int64_t>(path.size()));
  if (path.empty()) {
    return support::InvalidArgumentError("empty navigation path");
  }
  const topo::NavGraph& dag = catalog_->dag();

  // Backward matching: find the deepest path element currently visible,
  // closing foreign windows if nothing matches (§4.3 "Path navigation").
  int start_index = -1;
  int closes = 0;
  while (start_index < 0) {
    for (int i = static_cast<int>(path.size()) - 1; i >= 0; --i) {
      if (LocateControl(dag.node(path[static_cast<size_t>(i)])) != nullptr) {
        start_index = i;
        break;
      }
    }
    if (start_index >= 0) {
      break;
    }
    gsim::Window* top = app_->TopWindow();
    if (top == nullptr || top == &app_->main_window() ||
        closes >= kMaxWindowCloses) {
      return support::NotFoundError(
          "no element of the navigation path is visible in the current UI state");
    }
    // Close the topmost window, favoring OK > Close > Cancel.
    gsim::Control* dispose = top->FindDisposeButton();
    if (dispose == nullptr) {
      return support::FailedPreconditionError("window '" + top->title() +
                                              "' has no close button");
    }
    support::Status s = app_->Click(*dispose);
    if (!s.ok()) {
      return s;
    }
    ++closes;
    detail += "[closed window via " + dispose->TrueName() + "] ";
  }

  // Forward traversal: click each path node from the match point onward.
  const support::RetryPolicy policy = EffectiveRetryPolicy();
  for (size_t i = static_cast<size_t>(start_index); i < path.size(); ++i) {
    const topo::NodeInfo& info = dag.node(path[i]);
    gsim::Control* control = LocateControlWithRetry(info, detail);
    if (control == nullptr) {
      support::ErrorDetail d;
      d.control_id = info.control_id;
      d.control_name = info.name;
      d.retryable = true;  // the control may still materialize later
      d.attempts = cmd_attempts_;
      d.backoff_ticks = cmd_backoff_ticks_;
      return support::NotFoundError(
                 support::Format("control '%s' (%s) expected on the path is not present; "
                                 "the UI may have diverged from the model",
                                 info.name.c_str(),
                                 std::string(uia::ControlTypeName(info.type)).c_str()))
          .WithDetail(std::move(d));
    }
    if (!control->IsEnabled()) {
      support::ErrorDetail d;
      d.control_id = info.control_id;
      d.control_name = info.name;
      d.retryable = false;  // disabled is a state problem, not a transient one
      d.attempts = cmd_attempts_;
      d.backoff_ticks = cmd_backoff_ticks_;
      return support::FailedPreconditionError(
                 support::Format(
                     "control '%s' (%s) was located but is disabled in the current state",
                     info.name.c_str(), std::string(uia::ControlTypeName(info.type)).c_str()))
          .WithDetail(std::move(d));
    }
    support::Status s = app_->Click(*control);
    // Typed recovery: a retryable failure (freeze window, stale element
    // reference, transient pattern failure, slow load) is retried under the
    // backoff schedule, re-locating first — a stale reference invalidated
    // every captured id, so the control must be found again.
    int click_retry = 1;
    while (!s.ok() && support::IsRetryable(s) && policy.ShouldRetry(click_retry) &&
           !DeadlineExpired()) {
      support::CountMetric("robust.click_retries");
      const uint64_t backoff = policy.BackoffTicks(click_retry, retry_rng_);
      for (uint64_t t = 0; t < backoff; ++t) {
        app_->Tick();
      }
      cmd_backoff_ticks_ += backoff;
      ++click_retry;
      ++cmd_attempts_;
      gsim::Control* again = LocateControl(info);
      if (again != nullptr) {
        control = again;
      }
      s = app_->Click(*control);
    }
    if (s.ok() && config_.enable_retry && i + 1 < path.size()) {
      // If the click silently failed (next node absent), retry the click.
      const topo::NodeInfo& next = dag.node(path[i + 1]);
      int attempt = 1;
      while (policy.ShouldRetry(attempt) && LocateControl(next) == nullptr &&
             !DeadlineExpired()) {
        const uint64_t backoff = policy.BackoffTicks(attempt, retry_rng_);
        for (uint64_t t = 0; t < backoff; ++t) {
          app_->Tick();
        }
        cmd_backoff_ticks_ += backoff;
        ++attempt;
        if (LocateControl(next) != nullptr) {
          break;
        }
        ++cmd_attempts_;
        s = app_->Click(*control);
        if (!s.ok()) {
          break;
        }
      }
    }
    if (!s.ok()) {
      support::ErrorDetail d;
      if (s.has_detail()) {
        d = s.detail();
      }
      if (d.control_id.empty()) {
        d.control_id = info.control_id;
      }
      if (d.control_name.empty()) {
        d.control_name = info.name;
      }
      d.retryable = support::IsRetryable(s);
      d.attempts = cmd_attempts_;
      d.backoff_ticks = cmd_backoff_ticks_;
      return WithAugmentedDetail(s, std::move(d));
    }
  }
  return support::Status::Ok();
}

VisitReport VisitExecutor::ExecuteParsed(std::vector<VisitCommand> commands) {
  support::TraceSpan span("visit.execute", "visit");
  span.AddArg("commands", static_cast<int64_t>(commands.size()));
  support::CountMetric("visit.calls");
  support::CountMetric("visit.commands", commands.size());
  const int64_t execute_start_us = support::TraceNowUs();
  VisitReport report;

  // further_query short-circuits (exclusivity enforced by the parser).
  if (commands.size() == 1 && commands[0].kind == VisitCommand::Kind::kFurtherQuery) {
    support::CountMetric("visit.further_queries");
    report.was_further_query = true;
    CommandReport cr;
    cr.command = commands[0];
    if (commands[0].further_query == -1) {
      report.further_query_text = catalog_->FullText();
      cr.status = support::Status::Ok();
    } else {
      auto text = catalog_->ExpandBranch(commands[0].further_query);
      if (text.ok()) {
        report.further_query_text = *text;
        cr.status = support::Status::Ok();
      } else {
        cr.status = text.status();
        report.overall = text.status();
      }
    }
    report.commands.push_back(std::move(cr));
    return report;
  }

  // Non-leaf filtering (§3.4 "Handling improper LLM instruction-following"):
  // navigation nodes are non-leaves; drop commands targeting them, plus any
  // shortcut commands immediately following a dropped command.
  std::vector<CommandReport> prepared;
  bool previous_dropped = false;
  for (VisitCommand& cmd : commands) {
    CommandReport cr;
    cr.command = cmd;
    if (config_.enable_nonleaf_filter) {
      if ((cmd.kind == VisitCommand::Kind::kAccess ||
           cmd.kind == VisitCommand::Kind::kAccessInput) &&
          !cmd.enforced) {
        const topo::TreeNode* node = catalog_->forest().FindById(cmd.target_id);
        if (node != nullptr && (node->is_reference || !node->children.empty())) {
          cr.filtered = true;
          cr.status = support::Status::Ok();
          previous_dropped = true;
          ++report.filtered_count;
          prepared.push_back(std::move(cr));
          continue;
        }
        previous_dropped = false;
      } else if (cmd.kind == VisitCommand::Kind::kShortcut && previous_dropped) {
        // A shortcut meant to follow a filtered command is dropped too.
        cr.filtered = true;
        cr.status = support::Status::Ok();
        ++report.filtered_count;
        prepared.push_back(std::move(cr));
        continue;
      } else {
        previous_dropped = false;
      }
    }
    prepared.push_back(std::move(cr));
  }

  // Sequential execution; the first failure aborts the remainder (their
  // preconditions are gone) but the report covers everything.
  const gsim::ActionStats before = app_->stats();
  bool aborted = false;
  for (CommandReport& cr : prepared) {
    if (cr.filtered) {
      report.commands.push_back(std::move(cr));
      continue;
    }
    if (aborted) {
      support::ErrorDetail d;
      d.retryable = false;
      cr.status = support::FailedPreconditionError("skipped: an earlier command failed")
                      .WithDetail(std::move(d));
      report.commands.push_back(std::move(cr));
      continue;
    }
    if (DeadlineExpired()) {
      // The run's tick budget is gone: no further command starts (acceptance:
      // a run never exceeds its budget by more than the one command that was
      // in flight when it lapsed).
      support::ErrorDetail d;
      d.retryable = false;
      cr.status = support::DeadlineExceededError("run deadline exhausted before this command")
                      .WithDetail(std::move(d));
      support::CountMetric("robust.deadline_skipped_commands");
      if (flight_ != nullptr) {
        flight_->RecordCommand(cr.command.ToString(), cr.status);
      }
      if (report.overall.ok()) {
        report.overall = cr.status;
      }
      report.commands.push_back(std::move(cr));
      continue;
    }
    cmd_attempts_ = 0;
    cmd_backoff_ticks_ = 0;
    switch (cr.command.kind) {
      case VisitCommand::Kind::kShortcut: {
        cr.status = app_->PressKey(cr.command.shortcut_key);
        break;
      }
      case VisitCommand::Kind::kAccess:
      case VisitCommand::Kind::kAccessInput: {
        auto path = catalog_->forest().ResolvePath(cr.command.target_id,
                                                   cr.command.entry_ref_ids);
        if (!path.ok()) {
          cr.status = path.status();
          break;
        }
        cr.status = NavigatePath(*path, cr.detail);
        if (cr.status.ok() && cr.command.kind == VisitCommand::Kind::kAccessInput) {
          // The access click focused the edit; now type.
          cr.status = app_->TypeText(cr.command.text);
        }
        break;
      }
      case VisitCommand::Kind::kFurtherQuery:
        cr.status = support::InternalError("further_query mixed into execution");
        break;
    }
    if (!cr.status.ok() && !cr.status.has_detail()) {
      // Acceptance contract: every failure carries a populated ErrorDetail,
      // including paths that fail before a control is involved (unresolvable
      // ids, shortcut chords the app rejects).
      support::ErrorDetail d;
      d.retryable = support::IsRetryable(cr.status);
      d.attempts = cmd_attempts_ > 0 ? cmd_attempts_ : 1;
      d.backoff_ticks = cmd_backoff_ticks_;
      cr.status = WithAugmentedDetail(cr.status, std::move(d));
    }
    if (cmd_attempts_ > 0) {
      support::ObserveMetric("robust.attempts_per_command",
                             static_cast<double>(cmd_attempts_));
    }
    if (cmd_backoff_ticks_ > 0) {
      support::ObserveMetric("robust.backoff_ticks",
                             static_cast<double>(cmd_backoff_ticks_));
    }
    if (flight_ != nullptr) {
      // Retry spending first (so the postmortem reads in causal order), then
      // the command with its final status + ErrorDetail.
      if (cmd_attempts_ > 1 || cmd_backoff_ticks_ > 0) {
        flight_->RecordRetry(cr.command.ToString(), cmd_attempts_, cmd_backoff_ticks_);
      }
      flight_->RecordCommand(cr.command.ToString(), cr.status);
    }
    if (!cr.status.ok()) {
      report.overall = cr.status;
      aborted = true;
    }
    report.commands.push_back(std::move(cr));
  }
  const gsim::ActionStats after = app_->stats();
  report.ui_actions = (after.clicks - before.clicks) + (after.key_chords - before.key_chords) +
                      (after.text_inputs - before.text_inputs);
  if (report.filtered_count > 0) {
    support::CountMetric("visit.filtered", report.filtered_count);
  }
  if (!deadline_.unlimited()) {
    support::ObserveMetric(
        "robust.deadline_headroom_ticks",
        static_cast<double>(deadline_.RemainingTicks(app_->current_tick())));
  }
  support::ObserveMetric(
      "visit.execute_ms",
      static_cast<double>(support::TraceNowUs() - execute_start_us) / 1000.0);
  return report;
}

}  // namespace dmi
