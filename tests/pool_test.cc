// Tests for the amortized run-startup machinery (DESIGN.md §10): the
// reset-based application pool's reset-equivalence contract, injector
// clearing on lease return, concurrent sharing of the immutable
// CompiledModel, and the pooled == unpooled suite-result guarantee.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/agent/task_runner.h"
#include "src/apps/excel_sim.h"
#include "src/apps/office_common.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/dmi/compiled_model.h"
#include "src/dmi/policy.h"
#include "src/dmi/session.h"
#include "src/ripper/ripper.h"
#include "src/support/metrics.h"
#include "src/uia/tree.h"
#include "src/workload/app_pool.h"
#include "src/workload/tasks.h"

namespace {

using namespace agentsim;

gsim::Control* Find(gsim::Application& app, const std::string& name) {
  auto* ctrl = static_cast<gsim::Control*>(uia::FindByName(app.main_window().root(), name));
  EXPECT_NE(ctrl, nullptr) << "control not found: " << name;
  return ctrl;
}

gsim::Control* FindInTop(gsim::Application& app, const std::string& name) {
  auto* ctrl = static_cast<gsim::Control*>(uia::FindByName(app.TopWindow()->root(), name));
  EXPECT_NE(ctrl, nullptr) << "control not found in top window: " << name;
  return ctrl;
}

// Finds a control anywhere in `root`'s static tree, open or not.
gsim::Control* FindStatic(gsim::Control& root, const std::string& name) {
  gsim::Control* found = nullptr;
  root.WalkStatic([&](gsim::Control& c) {
    if (found == nullptr && c.TrueName() == name) {
      found = &c;
    }
  });
  EXPECT_NE(found, nullptr) << "control not found: " << name;
  return found;
}

support::Status ClickByName(gsim::Application& app, const std::string& name) {
  gsim::Control* ctrl = Find(app, name);
  if (ctrl == nullptr) {
    return support::Status(support::StatusCode::kNotFound, name);
  }
  return app.Click(*ctrl);
}

// ----- reset-equivalence checksums -------------------------------------------------

// The UIA-tree checksum excludes runtime ids and the UI generation, so two
// independently constructed instances of the same app checksum identically —
// the property the pool's verification leans on.
TEST(ResetEquivalenceTest, FreshChecksumsAreInstanceIndependent) {
  {
    apps::WordSim a, b;
    EXPECT_EQ(a.UiaStateChecksum(), b.UiaStateChecksum());
  }
  {
    apps::ExcelSim a, b;
    EXPECT_EQ(a.UiaStateChecksum(), b.UiaStateChecksum());
  }
  {
    apps::PpointSim a, b;
    EXPECT_EQ(a.UiaStateChecksum(), b.UiaStateChecksum());
  }
}

TEST(ResetEquivalenceTest, WordResetMatchesFreshAfterMutations) {
  apps::WordSim fresh;
  const uint64_t want = fresh.UiaStateChecksum();

  apps::WordSim app;
  app.CaptureFreshState();
  ASSERT_EQ(app.UiaStateChecksum(), want);

  // Document edits + ribbon state.
  app.SetSelection(0, 2);
  ASSERT_TRUE(ClickByName(app, "Bold").ok());
  ASSERT_TRUE(ClickByName(app, "Design").ok());
  ASSERT_TRUE(ClickByName(app, "Page Color").ok());
  ASSERT_TRUE(ClickByName(app, "Gold").ok());
  // Scrolled state.
  auto* scroll = uia::PatternCast<uia::ScrollPattern>(*app.document_control());
  ASSERT_NE(scroll, nullptr);
  ASSERT_TRUE(scroll->SetScrollPercent(uia::ScrollPattern::kNoScroll, 80.0).ok());
  // Dialog-open state with typed content (Replace lives on the Home tab).
  ASSERT_TRUE(ClickByName(app, "Home").ok());
  ASSERT_TRUE(ClickByName(app, "Replace").ok());
  ASSERT_EQ(app.TopWindow()->title(), "Find and Replace");
  gsim::Control* find_what = FindInTop(app, "Find what");
  ASSERT_NE(find_what, nullptr);
  ASSERT_TRUE(app.Click(*find_what).ok());
  ASSERT_TRUE(app.TypeText("profit").ok());

  EXPECT_NE(app.UiaStateChecksum(), want);
  app.ResetToFreshState();
  EXPECT_EQ(app.UiaStateChecksum(), want);
  // Reset is idempotent.
  app.ResetToFreshState();
  EXPECT_EQ(app.UiaStateChecksum(), want);
}

TEST(ResetEquivalenceTest, ExcelResetMatchesFreshAfterMutations) {
  apps::ExcelSim fresh;
  const uint64_t want = fresh.UiaStateChecksum();

  apps::ExcelSim app;
  app.CaptureFreshState();
  ASSERT_EQ(app.UiaStateChecksum(), want);

  // Select, commit a new cell value, and scroll the grid viewport.
  ASSERT_TRUE(app.Click(*app.CellControl(20, 4)).ok());
  ASSERT_TRUE(app.Click(*app.formula_bar()).ok());
  ASSERT_TRUE(app.TypeText("hello").ok());
  ASSERT_TRUE(app.PressKey("ENTER").ok());
  ASSERT_NE(app.find_cell(20, 4), nullptr);
  auto* scroll = uia::PatternCast<uia::ScrollPattern>(*app.grid_control());
  ASSERT_NE(scroll, nullptr);
  ASSERT_TRUE(scroll->SetScrollPercent(uia::ScrollPattern::kNoScroll, 80.0).ok());

  EXPECT_NE(app.UiaStateChecksum(), want);
  app.ResetToFreshState();
  EXPECT_EQ(app.UiaStateChecksum(), want);
  EXPECT_EQ(app.find_cell(20, 4), nullptr);
}

TEST(ResetEquivalenceTest, PpointResetMatchesFreshAfterMutations) {
  apps::PpointSim fresh;
  const uint64_t want = fresh.UiaStateChecksum();

  apps::PpointSim app;
  app.CaptureFreshState();
  ASSERT_EQ(app.UiaStateChecksum(), want);

  // Switch slides and select the image shape — reveals the Picture Format
  // context tab.
  ASSERT_TRUE(ClickByName(app, "Slide 3").ok());
  ASSERT_TRUE(ClickByName(app, "Image: Quarterly chart screenshot").ok());
  EXPECT_GE(app.selected_shape(), 0);
  // Open the Format Background pane and recolor every slide.
  ASSERT_TRUE(ClickByName(app, "Design").ok());
  ASSERT_TRUE(ClickByName(app, "Format Background").ok());
  ASSERT_TRUE(ClickByName(app, "Fill Color").ok());
  ASSERT_TRUE(ClickByName(app, "Blue").ok());
  ASSERT_TRUE(ClickByName(app, "Apply to All").ok());

  EXPECT_NE(app.UiaStateChecksum(), want);
  app.ResetToFreshState();
  EXPECT_EQ(app.UiaStateChecksum(), want);
  for (const auto& slide : app.slides()) {
    EXPECT_NE(slide.background_color, "Blue");
  }
}

// WordSim plus a host for the shared color palette inside the Font dialog,
// which no shipped dialog has: opening it re-parents the palette into a
// dialog window.
std::unique_ptr<apps::WordSim> WordWithDialogPaletteHost() {
  auto app = std::make_unique<apps::WordSim>();
  gsim::Control* palette = FindStatic(app->main_window().root(), "Font Color")->popup();
  apps::AddSharedPaletteButton(app->FindDialog("font_dialog")->root(), "Dialog Font Color",
                               palette);
  return app;
}

// The reset restores only the controls whose snapshot fields changed, so
// every setter of such a field must queue its control. One case per setter,
// each mutating a freshly captured app directly and then resetting it, twice:
// the restore must also re-arm the control for the next session.
TEST(ResetEquivalenceTest, EverySnapshotSetterIsRestored) {
  auto main = [](apps::WordSim& app) -> gsim::Control& { return app.main_window().root(); };
  auto dialog = [](apps::WordSim& app, const char* id) -> gsim::Control& {
    return app.FindDialog(id)->root();
  };
  const std::vector<std::pair<std::string, std::function<void(apps::WordSim&)>>> cases = {
      {"set_toggled",
       [&](apps::WordSim& app) { FindStatic(main(app), "Strikethrough")->set_toggled(true); }},
      {"set_selected",
       [&](apps::WordSim& app) {
         FindStatic(dialog(app, "font_dialog"), "Italic Style")->set_selected(true);
       }},
      {"set_text_value",
       [&](apps::WordSim& app) {
         FindStatic(dialog(app, "find_replace_dialog"), "Find what")->set_text_value("profit");
       }},
      {"set_range_value",
       [&](apps::WordSim& app) { FindStatic(main(app), "Indent Left")->set_range_value(12.0); }},
      {"SetEnabled", [&](apps::WordSim& app) { FindStatic(main(app), "Bold")->SetEnabled(false); }},
      {"SetForcedOffscreen",
       [&](apps::WordSim& app) { FindStatic(main(app), "Italic")->SetForcedOffscreen(true); }},
      {"RenameTo",
       [&](apps::WordSim& app) {
         FindStatic(dialog(app, "find_replace_dialog"), "Find Next")->RenameTo("Go To");
       }},
      {"SetPopupOpen",
       [&](apps::WordSim& app) { FindStatic(main(app), "Underline")->SetPopupOpen(true); }},
      {"AddChild",
       [&](apps::WordSim& app) {
         FindStatic(main(app), "Bold")->NewChild("Late Button", uia::ControlType::kButton);
       }},
      // The palette adopts the dialog host as parent and the dialog as window
      // across its whole subtree; only the palette root is queued.
      {"shared palette opened from a dialog host",
       [&](apps::WordSim& app) {
         gsim::Control& font_dialog = dialog(app, "font_dialog");
         gsim::Control* host = FindStatic(font_dialog, "Dialog Font Color");
         ASSERT_TRUE(app.Click(*FindStatic(main(app), "Font Settings")).ok());
         ASSERT_TRUE(app.Click(*host).ok());
         ASSERT_EQ(FindStatic(*host->popup(), "Blue")->window(), font_dialog.window());
       }},
      // A run-time child has no snapshot: its own setters must not queue it,
      // and its parent's restore destroys it.
      {"child added after capture",
       [&](apps::WordSim& app) {
         gsim::Control* late =
             FindStatic(main(app), "Italic")->NewChild("Late Toggle", uia::ControlType::kCheckBox);
         late->set_toggled(true);
         late->SetEnabled(false);
         late->NewChild("Late Label", uia::ControlType::kText)->RenameTo("Late Label 2");
       }},
  };
  const uint64_t want = WordWithDialogPaletteHost()->UiaStateChecksum();
  for (const auto& [name, mutate] : cases) {
    SCOPED_TRACE(name);
    std::unique_ptr<apps::WordSim> app = WordWithDialogPaletteHost();
    app->CaptureFreshState();
    for (int round = 1; round <= 2; ++round) {
      mutate(*app);
      EXPECT_NE(app->UiaStateChecksum(), want) << "round " << round << ": mutation not visible";
      app->ResetToFreshState();
      const uint64_t got = app->UiaStateChecksum();
      EXPECT_EQ(got, want) << "round " << round;
      if (got != want) {
        break;  // the next round would look up a control left unrestored
      }
    }
  }
}

// ----- the pool itself -------------------------------------------------------------

workload::Task BenchTask(workload::AppKind kind) {
  workload::Task task;
  task.id = "pool-test";
  task.app = kind;
  switch (kind) {
    case workload::AppKind::kWord:
      task.make_app = [] { return std::make_unique<apps::WordSim>(); };
      break;
    case workload::AppKind::kExcel:
      task.make_app = [] { return std::make_unique<apps::ExcelSim>(); };
      break;
    case workload::AppKind::kPpoint:
      task.make_app = [] { return std::make_unique<apps::PpointSim>(); };
      break;
  }
  return task;
}

TEST(AppPoolTest, ReuseSurvivesVerifiedResetCycles) {
  workload::AppPool::Options options;
  options.verify_reset = true;  // force on even in release builds
  workload::AppPool pool(options);
  const workload::Task task = BenchTask(workload::AppKind::kWord);

  gsim::Application* first = nullptr;
  for (int cycle = 0; cycle < 3; ++cycle) {
    workload::AppPool::Lease lease = pool.Acquire(task);
    ASSERT_TRUE(lease);
    if (first == nullptr) {
      first = lease.get();
    } else {
      // A verification failure would discard the instance; surviving reuse
      // of the same pointer proves every reset checksum matched.
      EXPECT_EQ(lease.get(), first) << "pooled instance was discarded on cycle " << cycle;
    }
    auto& word = static_cast<apps::WordSim&>(*lease);
    gsim::Control* bold = Find(word, "Bold");
    ASSERT_NE(bold, nullptr);
    word.SetSelection(0, 1);
    ASSERT_TRUE(word.Click(*bold).ok());
  }
  EXPECT_EQ(pool.IdleCount(workload::AppKind::kWord), 1u);
}

TEST(AppPoolTest, UnpooledLeaseIsThrowaway) {
  workload::AppPool pool;
  const workload::Task task = BenchTask(workload::AppKind::kExcel);
  {
    workload::AppPool::Lease lease = pool.Acquire(task, /*pooled=*/false);
    ASSERT_TRUE(lease);
  }
  EXPECT_EQ(pool.IdleCount(workload::AppKind::kExcel), 0u);
}

// Acquire-time verification (DESIGN.md §11): an idle instance whose state was
// mutated while shelved is caught at lease time, discarded, and acquisition
// degrades to a fresh construction — it never hands out a corrupted app.
TEST(AppPoolTest, AcquireVerifyDiscardsAShelvedInstanceMutatedBehindItsBack) {
  workload::AppPool::Options options;
  options.verify_reset = true;
  options.verify_acquire = true;
  workload::AppPool pool(options);
  const workload::Task task = BenchTask(workload::AppKind::kWord);

  gsim::Application* raw = nullptr;
  {
    workload::AppPool::Lease lease = pool.Acquire(task);
    ASSERT_TRUE(lease);
    raw = lease.get();
  }  // release shelves the (reset-verified) instance
  ASSERT_EQ(pool.IdleCount(workload::AppKind::kWord), 1u);

  // Corrupt the shelved instance through the retained pointer — the exact
  // hazard acquire-time verification defends against.
  const uint64_t before = raw->UiaStateChecksum();
  gsim::Control* bold = Find(static_cast<apps::WordSim&>(*raw), "Bold");
  ASSERT_NE(bold, nullptr);
  bold->SetEnabled(false);
  ASSERT_NE(raw->UiaStateChecksum(), before);  // the mutation is visible

  const uint64_t discards_before =
      support::MetricsRegistry::Global().Snapshot().CounterValue(
          "app_pool.acquire_discards");
  workload::AppPool::Lease lease = pool.Acquire(task);
  ASSERT_TRUE(lease);
  // The corrupted instance was discarded and a fresh one constructed (the
  // allocator may reuse the address, so assert on state, not identity).
  gsim::Control* fresh_bold = Find(static_cast<apps::WordSim&>(*lease), "Bold");
  ASSERT_NE(fresh_bold, nullptr);
  EXPECT_TRUE(fresh_bold->IsEnabled());
  const uint64_t discards_after =
      support::MetricsRegistry::Global().Snapshot().CounterValue(
          "app_pool.acquire_discards");
  EXPECT_EQ(discards_after - discards_before, 1u);
  EXPECT_EQ(pool.IdleCount(workload::AppKind::kWord), 0u);  // shelf emptied
}

// Resets after real sessions: the whole suite, in both agent modes under
// every hazard preset. After each run the runner's pool holds the factory-reset
// instance; leasing it back must give the checksum of a freshly built app of
// that kind. One creation per app kind shows every lease got the same
// instance back.
TEST(AppPoolTest, SuiteResetsMatchFreshUnderEveryPolicy) {
  TaskRunner runner;
  const std::vector<workload::Task> suite = workload::BuildOsworldWSuite();
  std::map<workload::AppKind, uint64_t> fresh;
  for (const workload::Task& task : suite) {
    if (!fresh.contains(task.app)) {
      std::unique_ptr<gsim::Application> app = task.make_app();
      app->CaptureFreshState();
      fresh[task.app] = app->UiaStateChecksum();
    }
  }
  auto creates = [] {
    return support::MetricsRegistry::Global().Snapshot().CounterValue("app_pool.creates");
  };
  const uint64_t creates_before = creates();

  constexpr int kRepeats = 20;
  for (const dmi::Policy& policy :
       {dmi::Policy::Typical(), dmi::Policy::Harsh(), dmi::Policy::Hostile()}) {
    for (InterfaceMode mode : {InterfaceMode::kGuiOnly, InterfaceMode::kGuiPlusDmi}) {
      RunConfig config;
      config.mode = mode;
      config.ApplyPolicy(policy);
      for (const workload::Task& task : suite) {
        for (int trial = 0; trial < kRepeats; ++trial) {
          runner.RunOnce(task, config, 1000 + static_cast<uint64_t>(trial));
          workload::AppPool::Lease lease = runner.app_pool().Acquire(task);
          ASSERT_EQ(lease->UiaStateChecksum(), fresh[task.app])
              << task.id << " trial " << trial << " mode " << InterfaceModeName(mode) << " policy "
              << policy.name;
        }
      }
    }
  }
  EXPECT_EQ(creates() - creates_before, fresh.size());
}

// ----- injector clearing -----------------------------------------------------------

void ExpectSameResult(const RunResult& a, const RunResult& b, const std::string& what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.llm_calls, b.llm_calls) << what;
  EXPECT_EQ(a.core_calls, b.core_calls) << what;
  EXPECT_DOUBLE_EQ(a.sim_time_s, b.sim_time_s) << what;
  EXPECT_EQ(a.prompt_tokens, b.prompt_tokens) << what;
  EXPECT_EQ(a.output_tokens, b.output_tokens) << what;
  EXPECT_EQ(a.ui_actions, b.ui_actions) << what;
  EXPECT_EQ(a.cause, b.cause) << what;
}

// A run on a pooled instance that previously hosted a high-instability run
// must behave exactly like a run on a fresh instance: the lease return
// detaches the injector and the factory reset erases every trace of it.
TEST(AppPoolTest, PooledRunAfterHighInstabilityMatchesFresh) {
  const std::vector<workload::Task> suite = workload::BuildOsworldWSuite();
  for (InterfaceMode mode : {InterfaceMode::kGuiOnly, InterfaceMode::kGuiPlusDmi}) {
    TaskRunner pooled_runner;
    RunConfig noisy;
    noisy.mode = mode;
    noisy.instability = gsim::InstabilityConfig::Harsh();
    pooled_runner.RunOnce(suite[0], noisy, /*seed=*/999);

    RunConfig calm;
    calm.mode = mode;
    const RunResult pooled = pooled_runner.RunOnce(suite[0], calm, /*seed=*/1234);

    TaskRunner fresh_runner;
    RunConfig calm_unpooled = calm;
    calm_unpooled.pool_apps = false;
    const RunResult fresh = fresh_runner.RunOnce(suite[0], calm_unpooled, /*seed=*/1234);
    ExpectSameResult(pooled, fresh,
                     std::string("mode=") + InterfaceModeName(mode));
  }
}

// ----- concurrent CompiledModel sharing --------------------------------------------

TEST(CompiledModelTest, ConcurrentThinSessionsAgree) {
  dmi::ModelingOptions options = TaskRunner::DefaultModelingOptions(workload::AppKind::kWord);
  apps::WordSim scratch;
  ripper::GuiRipper rip(scratch, options.ripper_config);
  const topo::NavGraph graph = rip.Rip(options.contexts);
  std::shared_ptr<const dmi::CompiledModel> model = dmi::CompiledModel::Compile(graph, options);

  apps::WordSim reference_app;
  dmi::DmiSession reference(reference_app, model);
  const std::string want = reference.BuildPromptContextUncached();

  constexpr int kThreads = 8;
  std::vector<std::string> prompts(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      apps::WordSim app;
      dmi::DmiSession session(app, model);
      prompts[static_cast<size_t>(i)] = session.BuildPromptContextUncached();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(prompts[static_cast<size_t>(i)], want) << "thread " << i;
  }
}

// ----- pooled == unpooled suite results --------------------------------------------

void ExpectSameSuite(const SuiteResult& a, const SuiteResult& b, const std::string& what) {
  ASSERT_EQ(a.records.size(), b.records.size()) << what;
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].task_id, b.records[i].task_id) << what;
    ASSERT_EQ(a.records[i].runs.size(), b.records[i].runs.size()) << what;
    for (size_t r = 0; r < a.records[i].runs.size(); ++r) {
      ExpectSameResult(a.records[i].runs[r], b.records[i].runs[r],
                       what + " task " + a.records[i].task_id);
    }
  }
}

// The pool must be invisible in the results: for every interface mode, a
// pooled suite equals an unpooled one field-for-field, serial or parallel.
TEST(SuiteEquivalenceTest, PooledMatchesUnpooledAcrossModesAndWorkers) {
  const std::vector<workload::Task> suite = workload::BuildOsworldWSuite();
  for (InterfaceMode mode :
       {InterfaceMode::kGuiOnly, InterfaceMode::kGuiOnlyForest, InterfaceMode::kGuiPlusDmi}) {
    RunConfig base;
    base.mode = mode;
    base.repeats = 1;
    TaskRunner reference_runner;
    const SuiteResult reference = reference_runner.RunSuite(suite, base);

    for (bool pooled : {true, false}) {
      for (int workers : {1, 4}) {
        if (pooled && workers == 1) {
          continue;  // that is the reference configuration itself
        }
        RunConfig config = base;
        config.pool_apps = pooled;
        config.workers = workers;
        TaskRunner runner;
        const SuiteResult result = runner.RunSuite(suite, config);
        ExpectSameSuite(result, reference,
                        std::string(InterfaceModeName(mode)) + " pooled=" +
                            (pooled ? "1" : "0") + " workers=" + std::to_string(workers));
      }
    }
  }
}

}  // namespace
