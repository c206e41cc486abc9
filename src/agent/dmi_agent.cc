#include "src/agent/dmi_agent.h"

#include <algorithm>

#include "src/apps/excel_sim.h"
#include "src/gui/input.h"
#include "src/support/flight_recorder.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"
#include "src/text/tokens.h"

namespace agentsim {
namespace {

using workload::DmiStep;
using workload::VisitTarget;

// Groups consecutive kVisitBatch steps into one LLM turn; every interaction
// step is its own turn (visit and interaction interfaces never mix, §3.4).
std::vector<std::vector<const DmiStep*>> GroupIntoTurns(const std::vector<DmiStep>& plan) {
  std::vector<std::vector<const DmiStep*>> turns;
  for (const DmiStep& step : plan) {
    const bool is_visit = step.kind == DmiStep::Kind::kVisitBatch;
    if (is_visit && !turns.empty() && !turns.back().empty() &&
        turns.back().back()->kind == DmiStep::Kind::kVisitBatch) {
      turns.back().push_back(&step);
    } else {
      turns.push_back({&step});
    }
  }
  return turns;
}

// Appends the visit commands that declare `vt` at `target`: its access (or
// access-input) command, then its auxiliary shortcut if it has one.
void AppendAccessCommands(const VisitTarget& vt, const dmi::ResolvedTarget& target,
                          std::vector<dmi::VisitCommand>& commands) {
  dmi::VisitCommand cmd;
  cmd.kind = vt.input_text.empty() ? dmi::VisitCommand::Kind::kAccess
                                   : dmi::VisitCommand::Kind::kAccessInput;
  cmd.target_id = target.id;
  cmd.entry_ref_ids = target.entry_ref_ids;
  cmd.text = vt.input_text;
  cmd.enforced = vt.enforced;
  commands.push_back(std::move(cmd));
  if (!vt.shortcut_after.empty()) {
    dmi::VisitCommand sc;
    sc.kind = dmi::VisitCommand::Kind::kShortcut;
    sc.shortcut_key = vt.shortcut_after;
    commands.push_back(std::move(sc));
  }
}

// Re-plans a failed declarative step gets per turn.
constexpr int kMaxStepRetries = 1;

// Accounting for a run doomed by the residual mechanism hazard: the agent
// burns the framework overhead plus two core attempts before giving up.
constexpr int kResidualCoreCalls = 2;
constexpr int kResidualLlmCalls = kFrameworkOverheadSteps + kResidualCoreCalls;
// Per-call prompt = session prompt context + roughly this many tokens of task
// description and framework scaffolding.
constexpr size_t kResidualTaskOverheadTokens = 200;
// Output across the whole run (plans, retries, the giving-up summary)...
constexpr size_t kResidualOutputTokensTotal = 500;
// ...but latency is charged per call at the typical plan-emission size.
constexpr size_t kResidualOutputTokensPerCall = 120;

}  // namespace

RunResult DmiAgent::Run(const workload::Task& task, dmi::DmiSession& session, SimLlm& llm) {
  support::TraceSpan run_span("agent.dmi", "agent");
  run_span.AddArg("task", task.id);
  RunResult rr;
  gsim::Application& app = session.app();

  const FailureCause doom =
      llm.SampleTaskPolicy(task, /*gui_mode=*/false, /*forest_knowledge=*/true);
  const bool topology_doom = llm.TopologyInaccuracy();
  // Residual mechanism hazard (unmodeled real-world UIA flakiness).
  if (llm.ResidualMechanismFailure()) {
    rr.llm_calls = kResidualLlmCalls;
    rr.core_calls = kResidualCoreCalls;
    const size_t per_call_prompt = session.PromptTokens() + kResidualTaskOverheadTokens;
    rr.prompt_tokens = static_cast<size_t>(kResidualLlmCalls) * per_call_prompt;
    rr.output_tokens = kResidualOutputTokensTotal;
    rr.sim_time_s =
        llm.CallLatency(per_call_prompt, kResidualOutputTokensPerCall) * kResidualLlmCalls;
    rr.success = false;
    rr.cause = llm.rng().Bernoulli(0.6) ? FailureCause::kNavigationError
                                        : FailureCause::kCompositeInteractionError;
    support::ErrorDetail residual;
    residual.retryable = false;
    residual.attempts = 1;
    rr.final_status = support::UnavailableError(
                          "residual mechanism failure: " +
                          std::string(FailureCauseName(rr.cause)))
                          .WithDetail(std::move(residual));
    return rr;
  }

  auto spend_call = [&](size_t output_tokens) {
    ++rr.llm_calls;
    const size_t in = session.PromptTokens() + textutil::CountTokens(task.description);
    rr.prompt_tokens += in;
    rr.output_tokens += output_tokens;
    rr.sim_time_s += llm.CallLatency(in, output_tokens);
  };

  // HostAgent decompose (framework step 1). Its prompt is small (no topology).
  ++rr.llm_calls;
  rr.prompt_tokens += 500;
  rr.output_tokens += 80;
  rr.sim_time_s += llm.CallLatency(500, 80);

  std::vector<DmiStep> plan = task.dmi_plan;
  if (doom != FailureCause::kNone) {
    // Misread task: the last functional target never gets declared.
    for (auto it = plan.rbegin(); it != plan.rend(); ++it) {
      if (it->kind == DmiStep::Kind::kVisitBatch && !it->targets.empty()) {
        it->targets.pop_back();
        if (it->targets.empty()) {
          plan.erase(std::next(it).base());
        }
        break;
      }
      if (it->kind != DmiStep::Kind::kVisitBatch) {
        plan.erase(std::next(it).base());
        break;
      }
    }
  }

  FailureCause pending_cause = FailureCause::kNone;
  // Resume-from-failure bookkeeping: the number of leading commands of the
  // current turn's batch that already executed successfully in an earlier
  // attempt. The executor aborts at the first failure, so everything before
  // it ran for real — a retried turn must not replay that prefix (most
  // critically shortcuts, whose key chords are not idempotent).
  size_t resume_skip = 0;

  // Executes one turn; returns OK or the failure to surface.
  auto run_visit_turn = [&](const std::vector<const DmiStep*>& steps) -> support::Status {
    std::vector<dmi::VisitCommand> commands;
    for (const DmiStep* step : steps) {
      for (const VisitTarget& vt : step->targets) {
        auto resolved = session.ResolveTargetByNames(vt.name_chain);
        if (!resolved.ok()) {
          // The model lacks this control: topology inaccuracy surfaces here.
          pending_cause = FailureCause::kTopologyInaccuracy;
          return resolved.status();
        }
        dmi::ResolvedTarget target = *resolved;
        if (topology_doom || llm.WrongControlChoice(false, true)) {
          if (topology_doom) {
            pending_cause = FailureCause::kTopologyInaccuracy;
          } else {
            pending_cause = FailureCause::kControlSemanticsMisread;
          }
          // Declare a neighboring id instead (a semantically-wrong control).
          int wrong = target.id;
          for (int delta : {1, -1, 2, -2}) {
            const topo::TreeNode* cand =
                session.catalog().forest().FindById(target.id + delta);
            if (cand != nullptr && !cand->is_reference && cand->children.empty()) {
              wrong = target.id + delta;
              break;
            }
          }
          // Executes cleanly, but on the wrong control: surfaces at
          // verification.
          target.id = wrong;
        }
        AppendAccessCommands(vt, target, commands);
        // Imperfect instruction following: sometimes the LLM also emits the
        // navigation chain — and its guessed navigation is itself error-prone
        // (that is why DMI's non-leaf filter must absorb it, §3.4). Half the
        // slips name the right parent; half land on some other navigation
        // node, which would derail execution if actually clicked.
        if (llm.SlipsNavigationNodes() && vt.name_chain.size() > 1) {
          auto nav = session.ResolveTargetByNames(
              {vt.name_chain.begin(), vt.name_chain.end() - 1});
          if (nav.ok()) {
            dmi::VisitCommand stray;
            stray.kind = dmi::VisitCommand::Kind::kAccess;
            stray.target_id = nav->id;
            stray.entry_ref_ids = nav->entry_ref_ids;
            if (llm.rng().Bernoulli(0.5)) {
              // A wrong navigation guess: the nearest other non-leaf node.
              const int span = 40;
              const int offset =
                  static_cast<int>(llm.rng().NextInRange(-span, span));
              for (int probe = 0; probe <= span; ++probe) {
                const int cand_id = nav->id + offset + probe;
                const topo::TreeNode* cand =
                    session.catalog().forest().FindById(cand_id);
                if (cand != nullptr && !cand->is_reference &&
                    !cand->children.empty() && cand_id != nav->id) {
                  stray.target_id = cand_id;
                  stray.entry_ref_ids.clear();
                  break;
                }
              }
            }
            // Insert before the real command, as an LLM would.
            commands.insert(commands.end() - (vt.shortcut_after.empty() ? 1 : 2), stray);
          }
        }
      }
    }
    if (resume_skip > 0) {
      const size_t skip = std::min(resume_skip, commands.size());
      commands.erase(commands.begin(),
                     commands.begin() + static_cast<std::ptrdiff_t>(skip));
      support::CountMetric("robust.resume_skipped_commands", skip);
      if (session.flight_recorder() != nullptr) {
        session.flight_recorder()->RecordNote(
            "resumed after failed batch: skipped " + std::to_string(skip) +
            " already-executed command(s)");
      }
    }
    dmi::VisitReport report = session.VisitParsed(std::move(commands));
    rr.sim_time_s += static_cast<double>(report.ui_actions) * 0.15;
    rr.ui_actions += report.ui_actions;
    if (config_.capture_report_json) {
      rr.report_json = report.RenderJson();
    }
    if (!report.overall.ok()) {
      size_t ok_prefix = 0;
      for (const dmi::CommandReport& cr : report.commands) {
        if (cr.filtered || cr.status.ok()) {
          ++ok_prefix;
        } else {
          break;
        }
      }
      resume_skip += ok_prefix;
      if (pending_cause == FailureCause::kNone) {
        pending_cause = FailureCause::kNavigationError;
      }
      return report.overall;
    }
    return support::Status::Ok();
  };

  auto run_interaction_turn = [&](const DmiStep& step) -> support::Status {
    session.screen().Refresh();
    dmi::InteractionInterfaces& ix = session.interaction();
    switch (step.kind) {
      case DmiStep::Kind::kSetScrollbar: {
        gsim::Control* surface = session.screen().FindByTrueName(step.surface_name);
        if (surface == nullptr) {
          pending_cause = FailureCause::kNavigationError;
          return support::NotFoundError("surface '" + step.surface_name + "' not visible");
        }
        auto status = ix.SetScrollbarPos(session.screen().LabelOf(*surface), -1.0,
                                         step.scroll_vertical);
        rr.sim_time_s += 0.3;
        return status.ok() ? support::Status::Ok() : status.status();
      }
      case DmiStep::Kind::kSelectParagraphs: {
        gsim::Control* surface = session.screen().FindByTrueName(step.surface_name);
        if (surface == nullptr) {
          pending_cause = FailureCause::kNavigationError;
          return support::NotFoundError("surface '" + step.surface_name + "' not visible");
        }
        auto status = ix.SelectParagraphs(session.screen().LabelOf(*surface),
                                          step.range_start, step.range_end);
        rr.sim_time_s += 0.3;
        return status.ok() ? support::Status::Ok() : status.status();
      }
      case DmiStep::Kind::kSelectCells: {
        auto& excel = static_cast<apps::ExcelSim&>(app);
        std::vector<std::string> labels;
        for (int r = step.range_start; r <= step.range_end; ++r) {
          for (int c = step.cell_col_start; c <= step.cell_col_end; ++c) {
            gsim::Control* cell = excel.CellControl(r, c);
            if (cell == nullptr) {
              continue;
            }
            std::string label = session.screen().LabelOf(*cell);
            if (!label.empty()) {
              labels.push_back(label);
            }
          }
        }
        if (labels.empty()) {
          pending_cause = FailureCause::kNavigationError;
          return support::NotFoundError("no cells of the range are on screen");
        }
        support::Status s = ix.SelectControls(labels);
        rr.sim_time_s += 0.3;
        return s;
      }
      case DmiStep::Kind::kObserve: {
        gsim::Control* surface = session.screen().FindByTrueName(step.surface_name);
        if (surface == nullptr) {
          return support::NotFoundError("observe target not visible");
        }
        auto text = ix.GetTextsActive(session.screen().LabelOf(*surface));
        rr.sim_time_s += 0.2;
        return text.ok() ? support::Status::Ok() : text.status();
      }
      case DmiStep::Kind::kGuiFallback: {
        // The slow path (§6): interactions outside DMI's coverage fall back
        // to the baseline's imperative GUI primitives. Executes the task's
        // GUI-plan slice [begin, end) with direct clicks/typing.
        gsim::ScreenView& screen = session.screen();
        gsim::InputDriver input(app, screen, app.instability());
        const auto& gui = task.gui_plan;
        const int begin = std::max(step.gui_fallback_begin, 0);
        const int end = std::min<int>(step.gui_fallback_end, static_cast<int>(gui.size()));
        for (int i = begin; i < end; ++i) {
          const workload::GuiAction& a = gui[static_cast<size_t>(i)];
          screen.Refresh();
          support::Status s = support::Status::Ok();
          switch (a.kind) {
            case workload::GuiAction::Kind::kClick: {
              gsim::Control* c =
                  gsim::FindInTopWindow(app, a.target, /*accept_decorated=*/false);
              s = c == nullptr ? support::NotFoundError("fallback target '" + a.target +
                                                        "' not visible")
                               : input.ClickControlByCoordinates(*c);
              break;
            }
            case workload::GuiAction::Kind::kType:
              s = input.TypeText(a.text);
              break;
            case workload::GuiAction::Kind::kKey:
              s = input.KeyChord(a.text);
              break;
            default:
              s = support::UnimplementedError(
                  "composite fallback actions are driven by the baseline agent");
          }
          rr.sim_time_s += llm.profile().ui_action_s;
          ++rr.ui_actions;
          if (!s.ok()) {
            pending_cause = FailureCause::kNavigationError;
            return s;
          }
        }
        return support::Status::Ok();
      }
      default:
        return support::InternalError("unexpected interaction step");
    }
  };

  // ----- the turn loop -------------------------------------------------------------
  const support::Deadline& deadline = session.run_deadline();
  const auto turns = GroupIntoTurns(plan);
  for (const auto& turn : turns) {
    int attempts = 0;
    resume_skip = 0;
    while (true) {
      if (rr.llm_calls >= config_.step_cap - 2) {
        rr.success = false;
        rr.cause = doom != FailureCause::kNone ? doom : FailureCause::kStepBudgetExhausted;
        support::ErrorDetail d;
        d.retryable = false;
        d.attempts = attempts + 1;
        rr.final_status = support::DeadlineExceededError(
                              "step budget exhausted (cap " +
                              std::to_string(config_.step_cap) + ")")
                              .WithDetail(std::move(d));
        spend_call(60);
        return rr;
      }
      if (deadline.Expired(app.current_tick())) {
        // Per-run tick budget exhausted (DESIGN.md §11). Degrade gracefully:
        // one re-describe + re-locate pass — refresh the screen and re-verify,
        // since the work done so far may already satisfy the task (e.g. only
        // the confirming notification was dropped) — before reporting the
        // typed deadline failure.
        support::CountMetric("robust.deadline_degradations");
        if (session.flight_recorder() != nullptr) {
          session.flight_recorder()->RecordNote(
              "deadline degradation: re-describe + re-verify rescue pass at tick " +
              std::to_string(app.current_tick()));
        }
        session.screen().Refresh();
        spend_call(60);
        if (task.verify(app)) {
          rr.success = true;
          return rr;
        }
        rr.success = false;
        rr.cause = FailureCause::kDeadlineExceeded;
        if (rr.final_status.ok()) {
          support::ErrorDetail d;
          d.retryable = false;
          d.attempts = attempts + 1;
          rr.final_status = support::DeadlineExceededError(
                                "run deadline exhausted at tick " +
                                std::to_string(app.current_tick()))
                                .WithDetail(std::move(d));
        }
        return rr;
      }
      app.Tick();
      app.Tick();
      app.Tick();
      spend_call(140);
      ++rr.core_calls;
      support::Status s = turn[0]->kind == DmiStep::Kind::kVisitBatch
                              ? run_visit_turn(turn)
                              : run_interaction_turn(*turn[0]);
      if (s.ok()) {
        break;
      }
      if (s.code() == support::StatusCode::kDeadlineExceeded) {
        // The executor refused (part of) the turn because the run deadline
        // lapsed mid-batch; route to the graceful-degradation gate above
        // keeping the executor's status (it carries the richer ErrorDetail).
        rr.final_status = s;
        continue;
      }
      // Structured error feedback lets the agent re-plan once per turn.
      if (++attempts > kMaxStepRetries) {
        rr.success = false;
        rr.cause = doom != FailureCause::kNone
                       ? doom
                       : (pending_cause != FailureCause::kNone
                              ? pending_cause
                              : FailureCause::kNavigationError);
        if (!s.has_detail()) {
          // Interaction/GUI-fallback turns can surface bare statuses; every
          // terminal failure must still carry an ErrorDetail (DESIGN.md §11).
          support::ErrorDetail d;
          d.retryable = support::IsRetryable(s);
          d.attempts = attempts;
          s = std::move(s).WithDetail(std::move(d));
        }
        rr.final_status = s;
        spend_call(60);
        return rr;
      }
      pending_cause = FailureCause::kNone;
    }
  }

  // AppAgent verification + HostAgent final verification.
  spend_call(90);
  bool verified = task.verify(app);
  if (!verified && pending_cause == FailureCause::kControlSemanticsMisread &&
      llm.VerifyCatches() && rr.llm_calls < config_.step_cap - 1) {
    // Verification caught the wrong declaration: one corrective re-plan of
    // the whole task (declarative plans are cheap to re-emit).
    ++rr.core_calls;
    spend_call(140);
    for (const auto& turn : GroupIntoTurns(task.dmi_plan)) {
      std::vector<dmi::VisitCommand> commands;
      if (turn[0]->kind == DmiStep::Kind::kVisitBatch) {
        for (const DmiStep* step : turn) {
          for (const VisitTarget& vt : step->targets) {
            auto resolved = session.ResolveTargetByNames(vt.name_chain);
            if (resolved.ok()) {
              AppendAccessCommands(vt, *resolved, commands);
            }
          }
        }
        dmi::VisitReport report = session.VisitParsed(std::move(commands));
        rr.sim_time_s += static_cast<double>(report.ui_actions) * 0.15;
        rr.ui_actions += report.ui_actions;
        if (config_.capture_report_json) {
          rr.report_json = report.RenderJson();
        }
      } else {
        (void)run_interaction_turn(*turn[0]);
      }
    }
    verified = task.verify(app);
  }
  spend_call(50);

  rr.success = verified;
  if (!rr.success) {
    if (doom != FailureCause::kNone) {
      rr.cause = doom;
    } else if (pending_cause != FailureCause::kNone) {
      rr.cause = pending_cause;
    } else {
      rr.cause = FailureCause::kControlSemanticsMisread;
    }
    support::ErrorDetail d;
    d.retryable = false;
    d.attempts = 1;
    rr.final_status = support::FailedPreconditionError(
                          "task verification failed: " +
                          std::string(FailureCauseName(rr.cause)))
                          .WithDetail(std::move(d));
  }
  return rr;
}

}  // namespace agentsim
