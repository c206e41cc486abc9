// The visit executor's control locate against the reference search
// (tests/locate_reference.h), which keeps no memo and scores every fuzzy
// candidate in full, across a seeded walk of UI mutations; and the one
// capture per UI state that the executor and the screen share.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/dmi/compiled_model.h"
#include "src/dmi/session.h"
#include "src/dmi/visit.h"
#include "src/gui/instability.h"
#include "src/gui/screen.h"
#include "src/ripper/ripper.h"
#include "src/support/metrics.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "tests/allocation_counter.h"
#include "tests/locate_reference.h"
#include "tests/screen_reference.h"

namespace {

template <typename App>
std::shared_ptr<const dmi::CompiledModel> RipAndCompile() {
  dmi::ModelingOptions options;
  options.ripper_config.blocklist = {"Account", "Feedback"};
  App scratch;
  ripper::GuiRipper rip(scratch, options.ripper_config);
  return dmi::CompiledModel::Compile(rip.Rip(), options);
}

// One executor held across a seeded walk under a slow-load injector that
// decorates `name_variation_rate` of the names: every 8th step resets the UI,
// every 8th step offset by 5 presses ESC, every 4th step offset by 2 ticks
// the clock, and every other step clicks a random visible control. After
// each step, for a seeded sample of DAG nodes (drawn from the whole DAG and
// from the nodes named like a visible control, or like one a reset hides),
// the executor's locate must equal the reference's, and a repeat call at the
// same generation must return the same control as one memo hit. Each step
// ends by asking for one of the nodes it located (one a reset hides, if it
// can), and the next step asks for that node first, while the executor's
// memo still holds it: a memo that outlives its generation answers it stale.
template <typename App>
void ExpectLocateMatchesTheReference(const dmi::CompiledModel& model,
                                     double name_variation_rate) {
  constexpr int kSteps = 160;
  constexpr int kDraws = 4;
  App app;
  gsim::InstabilityConfig config;
  config.slow_load_rate = 0.5;
  config.slow_load_ticks = 3;
  config.name_variation_rate = name_variation_rate;
  gsim::InstabilityInjector injector(config, 20261019);
  app.SetInstability(&injector);
  dmi::VisitExecutor executor(app, model.catalog(), dmi::VisitConfig{});
  gsim::Capture& reference_index = app.capture();
  const support::Counter& memo_hits =
      support::MetricsRegistry::Global().GetCounter("visit.locate_memo_hits");

  const topo::NavGraph& dag = model.dag();
  std::unordered_map<std::string, std::vector<int>> nodes_by_name;
  for (int i = topo::NavGraph::kRootIndex + 1; i < static_cast<int>(dag.node_count()); ++i) {
    nodes_by_name[dag.node(i).name].push_back(i);
  }
  support::Rng rng(11);
  const topo::NodeInfo* carried = nullptr;
  gsim::Control* carried_answer = nullptr;
  int found = 0;
  int fuzzy_found = 0;
  int carried_changes = 0;
  // A DAG node named like the control, if any.
  auto named_like = [&](const gsim::Control& control) -> const topo::NodeInfo* {
    const auto named = nodes_by_name.find(control.TrueName());
    if (named == nodes_by_name.end()) {
      return nullptr;
    }
    return &dag.node(named->second[rng.NextBelow(named->second.size())]);
  };
  // The controls a reset shows; a reset hides every other control.
  std::unordered_set<const gsim::Control*> home;
  app.ResetUiState();
  for (const screen_reference::Entry& entry : screen_reference::LabeledControls(app)) {
    home.insert(entry.control);
  }
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(app.name() + " step " + std::to_string(step));
    if (step % 8 == 0) {
      app.ResetUiState();
    } else if (step % 8 == 5) {
      (void)app.PressKey("ESC");
    } else if (step % 4 == 2) {
      app.Tick();
    } else {
      const std::vector<screen_reference::Entry> visible =
          screen_reference::LabeledControls(app);
      ASSERT_FALSE(visible.empty());
      (void)app.Click(*visible[rng.NextBelow(visible.size())].control);
      if (app.in_external_state()) {
        app.ResetUiState();
      }
    }

    // The controls away from the reset state (open popups and dialogs, other
    // tabs) are the ones a later step hides again, so their nodes are drawn
    // too.
    const std::vector<screen_reference::Entry> visible = screen_reference::LabeledControls(app);
    std::vector<const gsim::Control*> away;
    for (const screen_reference::Entry& entry : visible) {
      if (!home.contains(entry.control)) {
        away.push_back(entry.control);
      }
    }
    std::vector<const topo::NodeInfo*> sample;
    if (carried != nullptr) {
      sample.push_back(carried);
    }
    for (int draw = 0; draw < kDraws; ++draw) {
      // Any node but the virtual root.
      sample.push_back(&dag.node(1 + static_cast<int>(rng.NextBelow(dag.node_count() - 1))));
      sample.push_back(named_like(*visible[rng.NextBelow(visible.size())].control));
      if (!away.empty()) {
        sample.push_back(named_like(*away[rng.NextBelow(away.size())]));
      }
    }
    std::erase(sample, nullptr);
    std::vector<const topo::NodeInfo*> located;
    std::vector<const topo::NodeInfo*> located_away;
    for (const topo::NodeInfo* node : sample) {
      gsim::Control* expected = locate_reference::LocateControl(app, reference_index, *node);
      ASSERT_EQ(executor.LocateControl(*node), expected) << node->control_id;
      const uint64_t hits = memo_hits.Value();
      ASSERT_EQ(executor.LocateControl(*node), expected) << node->control_id;
      ASSERT_EQ(memo_hits.Value() - hits, 1u) << node->control_id;
      if (node == carried && expected != carried_answer) {
        ++carried_changes;
      }
      if (expected != nullptr) {
        located.push_back(node);
        if (!home.contains(expected)) {
          located_away.push_back(node);
        }
        if (reference_index.FindByIdInWindow(node->control_id, app.TopWindow()) == nullptr) {
          ++fuzzy_found;
        }
      }
    }
    found += static_cast<int>(located.size());
    // Carry a located node, one away from the reset state if it can, and
    // leave it in the executor's memo.
    const std::vector<const topo::NodeInfo*>& pool = located_away.empty() ? located : located_away;
    carried = pool.empty() ? nullptr : pool[rng.NextBelow(pool.size())];
    if (carried != nullptr) {
      carried_answer = locate_reference::LocateControl(app, reference_index, *carried);
      ASSERT_EQ(executor.LocateControl(*carried), carried_answer) << carried->control_id;
    }
  }
  // The walk exercised what it is meant to: many located controls, some of
  // them past a missed exact probe (the fuzzy fallback's answers), and
  // carried nodes whose answer moved with the UI.
  EXPECT_GT(found, kSteps);
  EXPECT_GT(fuzzy_found, 0);
  EXPECT_GT(carried_changes, 0);
}

template <typename App>
void ExpectLocateMatchesTheReferenceAcrossClicks() {
  const std::shared_ptr<const dmi::CompiledModel> model = RipAndCompile<App>();
  for (const double rate : {1.0, 0.3}) {
    SCOPED_TRACE("name_variation_rate " + std::to_string(rate));
    ExpectLocateMatchesTheReference<App>(*model, rate);
  }
}

TEST(VisitLocateTest, MatchesTheReferenceAcrossClicksWord) {
  ExpectLocateMatchesTheReferenceAcrossClicks<apps::WordSim>();
}

TEST(VisitLocateTest, MatchesTheReferenceAcrossClicksExcel) {
  ExpectLocateMatchesTheReferenceAcrossClicks<apps::ExcelSim>();
}

TEST(VisitLocateTest, MatchesTheReferenceAcrossClicksPpoint) {
  ExpectLocateMatchesTheReferenceAcrossClicks<apps::PpointSim>();
}

// ----- one capture per UI state --------------------------------------------------

// At one UI generation the executor's locates and the screen's refresh share
// one walk of the visible tree, whichever asks first. The screen's refresh
// writes no id; the executor's first locate writes them over the same walk,
// and the screen lays out a walk the executor made.
template <typename App>
void ExpectOneWalkPerGeneration() {
  const std::shared_ptr<const dmi::CompiledModel> model = RipAndCompile<App>();
  const topo::NavGraph& dag = model->dag();
  App app;
  dmi::VisitExecutor executor(app, model->catalog(), dmi::VisitConfig{});
  gsim::ScreenView screen(app);
  gsim::Capture& capture = app.capture();
  support::Rng rng(3);
  for (int step = 0; step < 24; ++step) {
    const bool screen_first = step % 2 == 0;
    SCOPED_TRACE(app.name() + " step " + std::to_string(step) +
                 (screen_first ? ", screen first" : ", executor first"));
    const uint64_t generation = app.ui_generation();
    if (step % 6 == 0) {
      app.ResetUiState();
    } else {
      const std::vector<screen_reference::Entry> visible = screen_reference::LabeledControls(app);
      (void)app.Click(*visible[rng.NextBelow(visible.size())].control);
      if (app.in_external_state()) {
        app.ResetUiState();
      }
    }
    if (app.ui_generation() == generation) {
      app.BumpUiGeneration();  // an inert click: a new generation all the same
    }
    const uint64_t walks = capture.walks();
    if (screen_first) {
      screen.Refresh();
    }
    for (int draw = 0; draw < 8; ++draw) {
      (void)executor.LocateControl(
          dag.node(1 + static_cast<int>(rng.NextBelow(dag.node_count() - 1))));
    }
    screen.Refresh();
    EXPECT_EQ(capture.walks() - walks, 1u);
    bool rebuilt = true;
    (void)capture.Visible(&rebuilt);
    EXPECT_FALSE(rebuilt);  // the first locate built this generation's ids

    const std::vector<screen_reference::Entry> expected = screen_reference::LabeledControls(app);
    ASSERT_EQ(screen.VisibleCount(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(screen.labeled()[i].control, expected[i].control);
      const gsim::Rect rect = expected[i].control->rect();
      ASSERT_EQ(rect.x, expected[i].rect.x) << "label " << expected[i].label;
      ASSERT_EQ(rect.y, expected[i].rect.y) << "label " << expected[i].label;
    }
    ASSERT_EQ(screen.RenderListing(), screen_reference::RenderListing(expected));
  }
}

TEST(CaptureTest, OneWalkPerGenerationWord) { ExpectOneWalkPerGeneration<apps::WordSim>(); }

TEST(CaptureTest, OneWalkPerGenerationExcel) { ExpectOneWalkPerGeneration<apps::ExcelSim>(); }

TEST(CaptureTest, OneWalkPerGenerationPpoint) { ExpectOneWalkPerGeneration<apps::PpointSim>(); }

// The capture belongs to the application, so a pooled application's buffers
// outlive its sessions: once a session has run, a session attached after a
// reset refreshes its screen, builds a new generation's ids for a locate and
// labels a control without allocating.
template <typename App>
void ExpectWarmSessionAllocatesNothing() {
  const std::shared_ptr<const dmi::CompiledModel> model = RipAndCompile<App>();
  const topo::NavGraph& dag = model->dag();
  App app;
  app.CaptureFreshState();
  std::string id;
  gsim::Control* control = nullptr;
  {
    dmi::DmiSession first(app, model);
    const gsim::CaptureEntry& entry = app.capture().Visible().back();
    id = entry.control_id;
    control = entry.control;
    (void)first.Prompt();
    // A visit of a leaf: its navigation locates in the start state and past it.
    for (int i = 1; i < static_cast<int>(dag.node_count()); ++i) {
      const auto leaf = first.ResolveTargetByNames({dag.node(i).name});
      if (dag.successors(i).empty() && leaf.ok() && leaf->entry_ref_ids.empty()) {
        EXPECT_GT(first.Visit(support::Format(R"([{"id":"%d"}])", leaf->id)).ui_actions, 0u);
        break;
      }
    }
  }
  app.ResetToFreshState();
  dmi::DmiSession second(app, model);
  app.BumpUiGeneration();
  size_t allocations = 0;
  gsim::Control* found = nullptr;
  std::string label;
  {
    AllocationCounter counter;
    second.screen().Refresh();
    found = app.capture().FindByIdInWindow(id, app.TopWindow());
    label = second.screen().LabelOf(*control);
    allocations = counter.count();
  }
  EXPECT_NE(found, nullptr);
  EXPECT_FALSE(label.empty());
  EXPECT_EQ(allocations, 0u) << "refreshing " << second.screen().VisibleCount() << " controls";
}

TEST(CaptureTest, WarmSessionAllocatesNothingWord) {
  ExpectWarmSessionAllocatesNothing<apps::WordSim>();
}

TEST(CaptureTest, WarmSessionAllocatesNothingExcel) {
  ExpectWarmSessionAllocatesNothing<apps::ExcelSim>();
}

TEST(CaptureTest, WarmSessionAllocatesNothingPpoint) {
  ExpectWarmSessionAllocatesNothing<apps::PpointSim>();
}

}  // namespace
