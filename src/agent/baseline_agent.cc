#include "src/agent/baseline_agent.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/apps/excel_sim.h"
#include "src/support/trace.h"
#include "src/text/tokens.h"
#include "src/uia/tree.h"

namespace agentsim {
namespace {

using workload::GuiAction;

// Composite-interaction iteration cap before giving up.
constexpr int kMaxDragIterations = 8;
// Wrong-click recoveries (re-orient and re-navigate) before giving up.
constexpr int kMaxRecoveries = 3;

// Relaxed name match: the screen may show decorated names ("Bold (Ctrl+B)");
// a human-or-LLM reader still binds them to the plan's "Bold".
bool NameMatches(const std::string& shown, const std::string& wanted) {
  if (shown == wanted) {
    return true;
  }
  return shown.size() > wanted.size() && shown.compare(0, wanted.size(), wanted) == 0 &&
         !isalnum(static_cast<unsigned char>(shown[wanted.size()]));
}

}  // namespace

RunResult BaselineGuiAgent::Run(const workload::Task& task, gsim::Application& app,
                                SimLlm& llm, gsim::InstabilityInjector* injector) {
  support::TraceSpan span("agent.baseline", "agent");
  span.AddArg("task", task.id);
  RunResult rr;
  gsim::ScreenView screen(app);
  screen.Refresh();
  gsim::InputDriver input(app, screen, injector);

  // ----- plan preparation -----------------------------------------------------
  std::vector<GuiAction> plan = task.gui_plan;
  const FailureCause doom =
      llm.SampleTaskPolicy(task, /*gui_mode=*/true, config_.forest_knowledge);
  if (doom != FailureCause::kNone) {
    // The (mis)understood task: the agent confidently executes a wrong plan.
    // Modeled as dropping the final functional action / using a wrong one.
    for (auto it = plan.rbegin(); it != plan.rend(); ++it) {
      if (it->functional) {
        plan.erase(std::next(it).base());
        break;
      }
    }
  }

  std::vector<bool> done(plan.size(), false);
  std::map<size_t, int> drag_iterations;
  FailureCause pending_cause = FailureCause::kNone;
  bool corrupted = false;       // a wrong click happened, not yet noticed
  int recoveries = 0;
  bool need_renav = false;

  // Finds the action's named control among currently visible controls of the
  // topmost window. Exact matches win over prefix-decorated matches: "Formula
  // Bar" must bind to the edit, not the "Formula Bar Strip" pane; the prefix
  // rule exists only for instability-decorated runtime names.
  auto find_visible = [&](const std::string& name) -> gsim::Control* {
    gsim::Window* top = app.TopWindow();
    if (top == nullptr) {
      return nullptr;
    }
    gsim::Control* exact = nullptr;
    gsim::Control* decorated = nullptr;
    uia::Walk(top->root(), [&](uia::Element& e, int) {
      if (exact != nullptr || e.IsOffscreen()) {
        return false;
      }
      auto* c = static_cast<gsim::Control*>(&e);
      if (c->TrueName() == name) {
        exact = c;
        return false;
      }
      if (decorated == nullptr && NameMatches(c->Name(), name)) {
        decorated = c;
      }
      return true;
    });
    return exact != nullptr ? exact : decorated;
  };

  // A plausible wrong neighbor for a grounding slip: the control laid out
  // adjacent in the labeled listing.
  auto neighbor_of = [&](gsim::Control* target) -> gsim::Control* {
    const auto& labeled = screen.labeled();
    for (size_t k = 0; k < labeled.size(); ++k) {
      if (labeled[k].control == target) {
        if (k + 1 < labeled.size()) {
          return labeled[k + 1].control;
        }
        if (k > 0) {
          return labeled[k - 1].control;
        }
      }
    }
    return target;
  };

  auto prompt_tokens = [&]() {
    // UFO-2-style per-call context: an annotated screenshot (vision tokens),
    // the labeled control list with per-control metadata (type, state,
    // rectangle, automation id — roughly 2.2x the bare listing), and the
    // agent scaffold/system prompt.
    constexpr size_t kScreenshotTokens = 1500;
    constexpr size_t kScaffoldTokens = 2200;
    size_t tokens = textutil::CountTokens(task.description) +
                    static_cast<size_t>(
                        2.2 * static_cast<double>(
                                  textutil::CountTokens(screen.RenderListing()))) +
                    kScreenshotTokens + kScaffoldTokens;
    if (config_.forest_knowledge) {
      tokens += config_.forest_knowledge_tokens;
    }
    return tokens;
  };

  auto spend_call = [&](size_t output_tokens) {
    ++rr.llm_calls;
    const size_t in = prompt_tokens();
    rr.prompt_tokens += in;
    rr.output_tokens += output_tokens;
    rr.sim_time_s += llm.CallLatency(in, output_tokens);
  };

  auto fail = [&](FailureCause cause) {
    rr.success = false;
    rr.cause = doom != FailureCause::kNone ? doom : cause;
    support::ErrorDetail d;
    d.retryable = false;
    d.attempts = 1;
    rr.final_status = support::FailedPreconditionError(
                          "run failed: " + std::string(FailureCauseName(rr.cause)))
                          .WithDetail(std::move(d));
    // Framework still runs its final verification step.
    spend_call(60);
    return rr;
  };

  const gsim::ActionStats stats_before = app.stats();

  // HostAgent: decompose the request and activate the app (framework step 1).
  spend_call(80);

  auto next_undone = [&]() -> size_t {
    for (size_t k = 0; k < plan.size(); ++k) {
      if (!done[k]) {
        return k;
      }
    }
    return plan.size();
  };

  // ----- AppAgent observe-act loop ----------------------------------------------
  while (next_undone() < plan.size()) {
    if (rr.llm_calls >= config_.step_cap - 2) {
      return fail(FailureCause::kStepBudgetExhausted);
    }
    // An LLM round-trip takes seconds: slow-loading UI content has appeared
    // by the time the next observation happens.
    app.Tick();
    app.Tick();
    app.Tick();
    screen.Refresh();
    spend_call(120);
    ++rr.core_calls;

    // A mis-planned call: wrong action emitted, error feedback, call wasted.
    if (llm.NavPlanError(config_.forest_knowledge)) {
      continue;
    }

    // Wrong-click follow-up: maybe the agent notices the UI is off.
    if (corrupted || need_renav) {
      const bool noticed = need_renav || llm.DetectsWrongClick();
      if (noticed) {
        if (++recoveries > kMaxRecoveries) {
          return fail(corrupted ? FailureCause::kVisualRecognitionError
                                : FailureCause::kNavigationError);
        }
        // Re-orient: close stray menus/dialogs, then re-run navigation.
        (void)input.KeyChord("ESC");
        (void)input.KeyChord("ESC");
        rr.sim_time_s += 2 * llm.profile().ui_action_s;
        for (size_t k = 0; k < plan.size(); ++k) {
          if (!plan[k].functional) {
            done[k] = false;
          }
        }
        corrupted = false;
        need_renav = false;
        continue;  // this call was spent re-orienting
      }
      // Not noticed: plough on blindly; the stray state usually surfaces as
      // navigation misses below.
    }

    // Record what is visible now: the action sequence may only reference
    // currently visible controls (UFO2-as restriction).
    std::set<std::string> visible_names;
    for (const auto& lc : screen.labeled()) {
      visible_names.insert(lc.control->TrueName());
    }

    int executed = 0;
    while (executed < llm.profile().max_actions_per_call) {
      const size_t i = next_undone();
      if (i >= plan.size()) {
        break;
      }
      GuiAction& a = plan[i];
      bool break_chunk = false;
      switch (a.kind) {
        case GuiAction::Kind::kClick: {
          if (visible_names.count(a.target) == 0) {
            // Target not visible at call time: the sequence must stop here
            // (it will be visible after earlier clicks take effect).
            if (executed == 0) {
              // Nothing executable at all: we are lost (menu closed, wrong
              // pane). Trigger re-navigation next call.
              need_renav = true;
            }
            break_chunk = true;
            break;
          }
          gsim::Control* target = find_visible(a.target);
          if (target == nullptr) {
            need_renav = true;
            break_chunk = true;
            break;
          }
          gsim::Control* actual = target;
          // Semantic slip on functional choices (wrong color, wrong item).
          if (a.functional &&
              llm.WrongControlChoice(/*gui_mode=*/true, config_.forest_knowledge)) {
            actual = neighbor_of(target);
            pending_cause = FailureCause::kControlSemanticsMisread;
          } else if (llm.GroundingError()) {
            actual = neighbor_of(target);
            corrupted = true;
            pending_cause = FailureCause::kVisualRecognitionError;
          }
          support::Status s = input.ClickControlByCoordinates(*actual);
          rr.sim_time_s += llm.profile().ui_action_s;
          ++executed;
          if (!s.ok()) {
            // Click bounced (blocked, disabled, empty space): re-orient.
            need_renav = true;
            break_chunk = true;
            break;
          }
          if (actual != target) {
            // The wrong control was activated; effects are unknown to the
            // agent until it observes.
            if (corrupted) {
              break_chunk = true;
            }
            done[i] = true;  // the agent believes the action happened
            break;
          }
          done[i] = true;
          break;
        }
        case GuiAction::Kind::kType: {
          support::Status s = app.TypeText(a.text);
          rr.sim_time_s += llm.profile().ui_action_s;
          ++executed;
          done[i] = true;
          if (!s.ok()) {
            need_renav = true;
            break_chunk = true;
          }
          break;
        }
        case GuiAction::Kind::kKey: {
          (void)app.PressKey(a.text);
          rr.sim_time_s += llm.profile().ui_action_s;
          ++executed;
          done[i] = true;
          break;
        }
        case GuiAction::Kind::kDragScroll: {
          // One drag-observe iteration per LLM call (Mismatch #2).
          if (drag_iterations[i] == 0 && llm.CompositeCollapses()) {
            return fail(FailureCause::kCompositeInteractionError);
          }
          gsim::Control* surface = find_visible(a.target);
          if (surface == nullptr) {
            need_renav = true;
            break_chunk = true;
            break;
          }
          auto* scroll = uia::PatternCast<uia::ScrollPattern>(*surface);
          if (scroll == nullptr) {
            return fail(FailureCause::kCompositeInteractionError);
          }
          const double perceived = llm.PerceiveScroll(scroll->VerticalPercent());
          const double delta = a.scroll_target - perceived;
          (void)input.DragScrollThumb(*surface, /*vertical=*/true, delta);
          rr.sim_time_s += 2.0 * llm.profile().ui_action_s;  // press-drag-release
          ++executed;
          if (++drag_iterations[i] > kMaxDragIterations) {
            return fail(FailureCause::kCompositeInteractionError);
          }
          if (std::abs(scroll->VerticalPercent() - a.scroll_target) <= 8.0) {
            done[i] = true;
          }
          break_chunk = true;  // must observe before continuing
          break;
        }
        case GuiAction::Kind::kSelectText: {
          // Composite visual selection: click start, shift-click end.
          gsim::Control* surface = nullptr;
          for (const auto& lc : screen.labeled()) {
            if (uia::PatternCast<uia::TextPattern>(*lc.control) != nullptr) {
              surface = lc.control;
              break;
            }
          }
          if (surface == nullptr) {
            return fail(FailureCause::kCompositeInteractionError);
          }
          int start = a.range_start;
          int end = a.range_end;
          if (llm.SelectionOffByOne()) {
            // Misjudged line boundary on screen.
            const int shift = llm.rng().Bernoulli(0.5) ? 1 : -1;
            if (llm.rng().Bernoulli(0.5)) {
              start = std::max(0, start + shift);
            } else {
              end = std::max(start, end + shift);
            }
            pending_cause = FailureCause::kCompositeInteractionError;
          }
          auto* text = uia::PatternCast<uia::TextPattern>(*surface);
          (void)text->SelectRange(uia::TextUnit::kParagraph, start, end);
          rr.sim_time_s += 3.0 * llm.profile().ui_action_s;
          ++executed;
          done[i] = true;
          break_chunk = true;  // observe the selection before acting on it
          break;
        }
        case GuiAction::Kind::kSelectCells: {
          // Click the anchor cell, then ctrl-click the far corner.
          int r0 = a.range_start;
          int r1 = a.range_end;
          int c0 = a.col_start;
          int c1 = a.col_end;
          if (llm.SelectionOffByOne()) {
            r1 = std::max(r0, r1 + (llm.rng().Bernoulli(0.5) ? 1 : -1));
            pending_cause = FailureCause::kCompositeInteractionError;
          }
          const std::string anchor = apps::ExcelSim::MakeRef(r0, c0);
          const std::string corner = apps::ExcelSim::MakeRef(r1, c1);
          gsim::Control* a_cell = find_visible(anchor);
          gsim::Control* b_cell = find_visible(corner);
          if (a_cell == nullptr || b_cell == nullptr) {
            need_renav = true;
            break_chunk = true;
            break;
          }
          (void)input.ClickControlByCoordinates(*a_cell);
          auto* sel = uia::PatternCast<uia::SelectionItemPattern>(*b_cell);
          if (sel != nullptr) {
            (void)sel->AddToSelection();
          }
          rr.sim_time_s += 2.0 * llm.profile().ui_action_s;
          ++executed;
          done[i] = true;
          break_chunk = true;
          break;
        }
      }
      if (break_chunk) {
        break;
      }
    }
    screen.Refresh();
  }

  // AppAgent verification + HostAgent final verification (framework steps).
  screen.Refresh();
  spend_call(90);
  bool verified = task.verify(app);
  if (!verified && pending_cause == FailureCause::kControlSemanticsMisread &&
      llm.VerifyCatches() && rr.llm_calls < config_.step_cap - 1) {
    // The agent's verification caught the wrong pick; one corrective retry of
    // the last functional action.
    ++rr.core_calls;
    spend_call(100);
    for (auto it = plan.rbegin(); it != plan.rend(); ++it) {
      if (it->functional && it->kind == GuiAction::Kind::kClick) {
        gsim::Control* target = find_visible(it->target);
        if (target != nullptr) {
          (void)input.ClickControlByCoordinates(*target);
          rr.sim_time_s += llm.profile().ui_action_s;
        }
        break;
      }
    }
    verified = task.verify(app);
  }
  spend_call(50);

  {
    const gsim::ActionStats stats_after = app.stats();
    rr.ui_actions = (stats_after.clicks - stats_before.clicks) +
                    (stats_after.key_chords - stats_before.key_chords) +
                    (stats_after.text_inputs - stats_before.text_inputs) +
                    (stats_after.drags - stats_before.drags);
  }
  rr.success = verified;
  if (!rr.success) {
    if (doom != FailureCause::kNone) {
      rr.cause = doom;
    } else if (pending_cause != FailureCause::kNone) {
      rr.cause = pending_cause;
    } else if (corrupted) {
      rr.cause = FailureCause::kVisualRecognitionError;
    } else {
      rr.cause = FailureCause::kNavigationError;
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
