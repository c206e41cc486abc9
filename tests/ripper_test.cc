#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/gui/application.h"
#include "src/gui/instability.h"
#include "src/ripper/identifier.h"
#include "src/ripper/ripper.h"
#include "src/support/metrics.h"
#include "src/support/rng.h"
#include "src/topology/transform.h"
#include "src/topology/validate.h"
#include "src/uia/tree.h"
#include "tests/allocation_counter.h"

namespace {

// ----- identifiers ----------------------------------------------------------------

// The oracle for the capture's ids: a live element's identifier built from
// scratch (primary|type|ancestor path, identifier.h), re-walking the parent
// chain instead of extending one shared path buffer.
std::string SynthesizeControlId(const uia::Element& element) {
  std::string primary = element.AutomationId();
  if (primary.empty()) {
    primary = element.Name();
  }
  if (primary.empty()) {
    primary = "[Unnamed]";
  }
  return primary + "|" + std::string(uia::ControlTypeName(element.Type())) + "|" +
         uia::AncestorPath(element);
}

// One control of each identifier case under a toolbar of the main window
// (whose root is named after the application).
class IdApp : public gsim::Application {
 public:
  IdApp() : gsim::Application("IdApp") {
    gsim::Control* bar = main_window().root().NewChild("Toolbar", uia::ControlType::kToolBar);
    with_automation_id = bar->NewChild("Save", uia::ControlType::kButton);
    with_automation_id->SetAutomationId("btnSave");
    named = bar->NewChild("Save As", uia::ControlType::kButton);
    unnamed = bar->NewChild("", uia::ControlType::kButton);
    in_unnamed_pane = bar->NewChild("", uia::ControlType::kPane)
                          ->NewChild("Inner", uia::ControlType::kButton);
    pathological = bar->NewChild("We|ird", uia::ControlType::kButton);
  }

  gsim::Control* with_automation_id;
  gsim::Control* named;
  gsim::Control* unnamed;
  gsim::Control* in_unnamed_pane;
  gsim::Control* pathological;
};

// The id the application's capture wrote for `control`.
std::string CapturedId(gsim::Application& app, const gsim::Control* control) {
  for (const gsim::CaptureEntry& entry : app.capture().Visible()) {
    if (entry.control == control) {
      return entry.control_id;
    }
  }
  return "<not captured>";
}

TEST(IdentifierTest, PrefersAutomationId) {
  IdApp app;
  EXPECT_EQ(CapturedId(app, app.with_automation_id), "btnSave|Button|IdApp/Toolbar");
}

TEST(IdentifierTest, FallsBackToNameThenUnnamed) {
  IdApp app;
  EXPECT_EQ(CapturedId(app, app.named), "Save As|Button|IdApp/Toolbar");
  EXPECT_EQ(CapturedId(app, app.unnamed), "[Unnamed]|Button|IdApp/Toolbar");
  // An unnamed ancestor is "[Unnamed]" in the path as well.
  EXPECT_EQ(CapturedId(app, app.in_unnamed_pane), "Inner|Button|IdApp/Toolbar/[Unnamed]");
}

TEST(IdentifierTest, ParseRoundTrip) {
  auto parsed = ripper::ParseControlId("Blue|ListItem|Color Palette");
  EXPECT_EQ(parsed.primary_id, "Blue");
  EXPECT_EQ(parsed.control_type, "ListItem");
  EXPECT_EQ(parsed.ancestor_path, "Color Palette");
}

TEST(IdentifierTest, ParseDegenerateForms) {
  EXPECT_EQ(ripper::ParseControlId("justname").primary_id, "justname");
  EXPECT_EQ(ripper::ParseControlId("a|b").control_type, "b");
}

TEST(IdentifierTest, ParsePrimaryContainingSeparator) {
  // A control named "A|B": the type field anchors the split.
  auto parsed = ripper::ParseControlId("A|B|Button|App");
  EXPECT_EQ(parsed.primary_id, "A|B");
  EXPECT_EQ(parsed.control_type, "Button");
  EXPECT_EQ(parsed.ancestor_path, "App");
}

TEST(IdentifierTest, ParseAncestorContainingSeparator) {
  // An ancestor named "Weird|Name": the valid type pair sits left of the
  // stray separator.
  auto parsed = ripper::ParseControlId("Save|Button|App/Weird|Name");
  EXPECT_EQ(parsed.primary_id, "Save");
  EXPECT_EQ(parsed.control_type, "Button");
  EXPECT_EQ(parsed.ancestor_path, "App/Weird|Name");
}

TEST(IdentifierTest, ParseNoValidTypeFallsBackToLastTwoSeparators) {
  auto parsed = ripper::ParseControlId("a|b|c|d");
  EXPECT_EQ(parsed.primary_id, "a|b");
  EXPECT_EQ(parsed.control_type, "c");
  EXPECT_EQ(parsed.ancestor_path, "d");
}

TEST(IdentifierTest, SynthesizeParseRoundTripWithPathologicalName) {
  IdApp app;
  const std::string id = CapturedId(app, app.pathological);
  EXPECT_EQ(id, "We|ird|Button|IdApp/Toolbar");
  auto parsed = ripper::ParseControlId(id);
  EXPECT_EQ(parsed.primary_id, "We|ird");
  EXPECT_EQ(parsed.control_type, "Button");
  EXPECT_EQ(parsed.ancestor_path, "IdApp/Toolbar");
}

// ----- ripping a small controlled app ----------------------------------------------

class SmallApp : public gsim::Application {
 public:
  SmallApp() : gsim::Application("SmallApp") {
    gsim::Control& root = main_window().root();
    shared_ = RegisterSharedSubtree(
        std::make_unique<gsim::Control>("Shared Panel", uia::ControlType::kList));
    shared_->NewChild("Cell One", uia::ControlType::kListItem)->SetCommand("pick");
    shared_->NewChild("Cell Two", uia::ControlType::kListItem)->SetCommand("pick");

    gsim::Control* bar = root.NewChild("Bar", uia::ControlType::kToolBar);
    gsim::Control* m1 = bar->NewChild("Host A", uia::ControlType::kMenuItem);
    m1->SetSharedPopup(shared_);
    gsim::Control* m2 = bar->NewChild("Host B", uia::ControlType::kMenuItem);
    m2->SetSharedPopup(shared_);

    gsim::Control* menu = bar->NewChild("Plain Menu", uia::ControlType::kMenuItem);
    auto popup = std::make_unique<gsim::Control>("Plain Popup", uia::ControlType::kMenu);
    popup->NewChild("Leaf Action", uia::ControlType::kButton)->SetCommand("x");
    menu->SetPopup(std::move(popup));

    root.NewChild("Trap", uia::ControlType::kHyperlink)
        ->SetClickEffect(gsim::ClickEffect::kExternal);
  }

  gsim::Control* shared_;
};

TEST(RipperTest, DiscoversMergeNodeViaSharedPopup) {
  SmallApp app;
  ripper::RipperConfig config;
  config.blocklist = {"Trap"};
  ripper::GuiRipper r(app, config);
  topo::NavGraph graph = r.Rip();
  // The shared panel root must be a single node with two in-edges.
  int panel = graph.FindNode("Shared Panel|List|");
  ASSERT_GE(panel, 0) << "shared panel not found as a floating surface";
  EXPECT_EQ(graph.InDegrees()[static_cast<size_t>(panel)], 2);
  // Its cells exist once.
  EXPECT_GE(graph.FindNode("Cell One|ListItem|Shared Panel"), 0);
}

TEST(RipperTest, DiscoversOwnedMenuContents) {
  SmallApp app;
  ripper::RipperConfig config;
  config.blocklist = {"Trap"};
  ripper::GuiRipper r(app, config);
  topo::NavGraph graph = r.Rip();
  bool found_leaf = false;
  for (size_t i = 0; i < graph.node_count(); ++i) {
    if (graph.node(static_cast<int>(i)).name == "Leaf Action") {
      found_leaf = true;
    }
  }
  EXPECT_TRUE(found_leaf);
}

TEST(RipperTest, BlocklistPreventsExternalRecoveries) {
  SmallApp app;
  ripper::RipperConfig config;
  config.blocklist = {"Trap"};
  ripper::GuiRipper r(app, config);
  (void)r.Rip();
  EXPECT_EQ(r.stats().external_recoveries, 0u);
}

TEST(RipperTest, MissingBlocklistCostsRecoveries) {
  SmallApp app;
  ripper::GuiRipper r(app, ripper::RipperConfig{});
  (void)r.Rip();
  EXPECT_GE(r.stats().external_recoveries, 1u);
}

TEST(RipperTest, GraphValidatesThroughPipeline) {
  SmallApp app;
  ripper::RipperConfig config;
  config.blocklist = {"Trap"};
  ripper::GuiRipper r(app, config);
  topo::NavGraph graph = r.Rip();
  auto dag = topo::Decycle(graph).dag;
  topo::Forest forest = topo::SelectiveExternalize(dag, 0);
  auto report = topo::ValidateForest(dag, forest);
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);
}

// ----- context-aware exploration -----------------------------------------------------

TEST(RipperTest, ContextRevealsContextualControls) {
  apps::PpointSim app;
  ripper::RipperConfig config;
  config.blocklist = {"Account"};
  config.max_depth = 4;  // keep this test fast
  ripper::GuiRipper r(app, config);

  // Without the image context, the Picture Format tab is invisible.
  topo::NavGraph without = r.Rip();
  bool tab_without = false;
  for (size_t i = 0; i < without.node_count(); ++i) {
    tab_without |= without.node(static_cast<int>(i)).name == "Picture Format";
  }
  EXPECT_FALSE(tab_without);

  apps::PpointSim app2;
  ripper::GuiRipper r2(app2, config);
  ripper::RipContext image_context;
  image_context.name = "image-selected";
  image_context.setup = [](gsim::Application& a) {
    auto& pp = static_cast<apps::PpointSim&>(a);
    pp.SetCurrentSlide(2);
    gsim::Control* image = nullptr;
    pp.main_window().root().WalkStatic([&](gsim::Control& c) {
      if (image == nullptr && c.Type() == uia::ControlType::kImage && !c.IsOffscreen()) {
        image = &c;
      }
    });
    if (image != nullptr) {
      (void)a.Click(*image);
    }
  };
  topo::NavGraph with = r2.Rip({image_context});
  bool tab_with = false;
  for (size_t i = 0; i < with.node_count(); ++i) {
    tab_with |= with.node(static_cast<int>(i)).name == "Picture Format";
  }
  EXPECT_TRUE(tab_with);
  EXPECT_EQ(r2.stats().contexts, 2u);
}

// ----- the index across a rip's mutations ------------------------------------------

namespace tracking {

ripper::RipContext ImageContext() {
  ripper::RipContext context;
  context.name = "image-selected";
  context.setup = [](gsim::Application& a) {
    auto& pp = static_cast<apps::PpointSim&>(a);
    pp.SetCurrentSlide(2);
    gsim::Control* image = nullptr;
    pp.main_window().root().WalkStatic([&](gsim::Control& c) {
      if (image == nullptr && c.Type() == uia::ControlType::kImage && !c.IsOffscreen()) {
        image = &c;
      }
    });
    if (image != nullptr) {
      (void)a.Click(*image);
    }
  };
  return context;
}

// The controls a capture must list, in desktop pre-order: uia::Walk from the
// accessibility root, offscreen subtrees pruned, the root itself skipped.
std::vector<gsim::Control*> WalkDesktop(gsim::Application& app) {
  std::vector<gsim::Control*> out;
  uia::Walk(app.AccessibilityRoot(), [&out](uia::Element& e, int) {
    if (e.IsOffscreen()) {
      return false;
    }
    if (e.RuntimeId() != 0) {
      out.push_back(static_cast<gsim::Control*>(&e));
    }
    return true;
  });
  return out;
}

// The controls the ripper clicks (GuiRipper's explorable types), minus the
// model's blocklist.
bool IsExplorable(const gsim::Control& c) {
  if (c.TrueName() == "Account" || c.TrueName() == "Feedback") {
    return false;
  }
  switch (c.Type()) {
    case uia::ControlType::kButton:
    case uia::ControlType::kMenuItem:
    case uia::ControlType::kTabItem:
    case uia::ControlType::kSplitButton:
    case uia::ControlType::kListItem:
    case uia::ControlType::kCheckBox:
    case uia::ControlType::kComboBox:
    case uia::ControlType::kRadioButton:
    case uia::ControlType::kHyperlink:
      return true;
    default:
      return false;
  }
}

// The application's capture across a seeded walk of the mutations a rip
// makes: every 8th step resets the UI and replays the context, every 8th
// step offset by 5 presses ESC, and every other step clicks a random
// explorable control. After each step the capture must agree with a fresh
// walk: the stale lookup (the cold walk), the capture, and the warm lookups,
// unscoped and scoped to the top window. A capture that misses a generation
// bump serves a stale state here.
template <typename App>
void ExpectIndexTracksTheWalk(const std::vector<ripper::RipContext>& contexts) {
  constexpr int kSteps = 400;
  App app;
  gsim::Capture& index = app.capture();
  support::Rng rng(20261019);
  std::set<std::string> captures;
  int stale_steps = 0;
  size_t compared = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(app.name() + " step " + std::to_string(step));
    const uint64_t generation = app.ui_generation();
    if (step % 8 == 0) {
      app.ResetUiState();
      for (const ripper::RipContext& context : contexts) {
        context.setup(app);
      }
    } else if (step % 8 == 5) {
      (void)app.PressKey("ESC");
    } else {
      std::vector<gsim::Control*> explorable;
      for (gsim::Control* c : WalkDesktop(app)) {
        if (IsExplorable(*c)) {
          explorable.push_back(c);
        }
      }
      ASSERT_FALSE(explorable.empty());
      (void)app.Click(*explorable[rng.NextBelow(explorable.size())]);
      if (app.in_external_state()) {
        app.ResetUiState();
      }
    }
    stale_steps += app.ui_generation() != generation ? 1 : 0;

    const std::vector<gsim::Control*> walked = WalkDesktop(app);
    ASSERT_FALSE(walked.empty());
    std::vector<std::string> ids;
    std::unordered_map<std::string, gsim::Control*> first;
    std::unordered_map<std::string, gsim::Control*> first_in_top;
    const gsim::Window* top = app.TopWindow();
    std::string capture;
    for (gsim::Control* c : walked) {
      ids.push_back(SynthesizeControlId(*c));
      first.emplace(ids.back(), c);
      if (c->window() == top) {
        first_in_top.emplace(ids.back(), c);
      }
      capture += ids.back() + "\n";
    }
    captures.insert(std::move(capture));

    // Stale: the lookup walks the tree without rebuilding.
    const std::string& probe = ids[rng.NextBelow(ids.size())];
    ASSERT_EQ(index.FindById(probe), first.at(probe)) << probe;
    EXPECT_EQ(index.FindById("Missing|Button|"), nullptr);

    const std::span<const gsim::CaptureEntry> visible = index.Visible();
    ASSERT_EQ(visible.size(), walked.size());
    for (size_t i = 0; i < walked.size(); ++i) {
      ASSERT_EQ(visible[i].control, walked[i]) << "entry " << i;
      ASSERT_EQ(visible[i].control_id, ids[i]) << "entry " << i;
    }
    for (const std::string& id : ids) {
      ASSERT_EQ(index.FindById(id), first.at(id)) << id;
      const auto in_top = first_in_top.find(id);
      ASSERT_EQ(index.FindByIdInWindow(id, top),
                in_top == first_in_top.end() ? nullptr : in_top->second)
          << id;
    }
    compared += walked.size();
  }
  // The walk left the start state often enough to test something.
  EXPECT_GT(stale_steps, kSteps / 2);
  EXPECT_GT(captures.size(), 10u);
  EXPECT_GT(compared, static_cast<size_t>(kSteps) * 20);
}

}  // namespace tracking

TEST(VisibleIndexTest, TracksTheWalkAcrossClicksWord) {
  tracking::ExpectIndexTracksTheWalk<apps::WordSim>({});
}

TEST(VisibleIndexTest, TracksTheWalkAcrossClicksExcel) {
  tracking::ExpectIndexTracksTheWalk<apps::ExcelSim>({});
}

TEST(VisibleIndexTest, TracksTheWalkAcrossClicksPpoint) {
  tracking::ExpectIndexTracksTheWalk<apps::PpointSim>({tracking::ImageContext()});
}

// ----- capture window slices ---------------------------------------------------------

namespace slices {

// The controls uia::Walk visits under `root`, in order: offscreen subtrees
// pruned, the desktop root (runtime id 0) skipped.
std::vector<gsim::Control*> WalkVisible(uia::Element& root) {
  std::vector<gsim::Control*> out;
  uia::Walk(root, [&out](uia::Element& e, int) {
    if (e.IsOffscreen()) {
      return false;
    }
    if (e.RuntimeId() != 0) {
      out.push_back(static_cast<gsim::Control*>(&e));
    }
    return true;
  });
  return out;
}

// First control on the top window's visible tree matching `pred`, or nullptr.
gsim::Control* FindVisible(gsim::Application& app,
                           const std::function<bool(const gsim::Control&)>& pred) {
  for (gsim::Control* c : WalkVisible(app.TopWindow()->root())) {
    if (pred(*c)) {
      return c;
    }
  }
  return nullptr;
}

bool IsMenuHost(const gsim::Control& c) {
  return c.IsEnabled() && c.click_effect() == gsim::ClickEffect::kRevealPopup &&
         c.popup() != nullptr && !c.popup()->floating();
}

bool IsPaletteHost(const gsim::Control& c) {
  return c.IsEnabled() && c.click_effect() == gsim::ClickEffect::kRevealPopup &&
         c.popup() != nullptr && c.popup()->floating();
}

// A visible control that opens a dialog: on the main window, or inside the
// first popup that holds one (the popup is left open).
gsim::Control* RevealDialogOpener(gsim::Application& app) {
  auto opens_dialog = [](const gsim::Control& c) {
    return c.IsEnabled() && c.click_effect() == gsim::ClickEffect::kOpenDialog;
  };
  if (gsim::Control* opener = FindVisible(app, opens_dialog)) {
    return opener;
  }
  for (gsim::Control* host : WalkVisible(app.main_window().root())) {
    if (!IsMenuHost(*host) && !IsPaletteHost(*host)) {
      continue;
    }
    if (!app.Click(*host).ok()) {
      continue;
    }
    if (gsim::Control* opener = FindVisible(app, opens_dialog)) {
      return opener;
    }
    (void)app.PressKey("ESC");
  }
  return nullptr;
}

// The visit executor's fuzzy fallback scores the top window's slice of the
// capture in place of walking that window: the slice must list exactly what
// the walk visits, in order, with the ids and ancestor paths the live tree
// synthesizes, and end the capture.
void ExpectTopSliceMatchesWalk(gsim::Application& app, const std::string& state) {
  SCOPED_TRACE(app.name() + ": " + state);
  gsim::Capture& index = app.capture();
  gsim::Window* top = app.TopWindow();
  ASSERT_NE(top, nullptr);
  const std::span<const gsim::CaptureEntry> slice = index.TopWindowEntries();
  const std::vector<gsim::Control*> walked = WalkVisible(top->root());
  ASSERT_FALSE(walked.empty());
  ASSERT_EQ(slice.size(), walked.size());
  for (size_t i = 0; i < walked.size(); ++i) {
    ASSERT_EQ(slice[i].control, walked[i]) << "entry " << i;
    EXPECT_EQ(slice[i].control_id, SynthesizeControlId(*walked[i])) << "entry " << i;
    EXPECT_EQ(slice[i].ancestor_path(), uia::AncestorPath(*walked[i])) << "entry " << i;
  }
  const std::span<const gsim::CaptureEntry> all = index.Visible();
  EXPECT_EQ(slice.data() + slice.size(), all.data() + all.size());
}

template <typename App>
void ExpectSlicesMatchWalkAcrossStates() {
  {
    App app;
    ExpectTopSliceMatchesWalk(app, "fresh");
  }
  {
    App app;
    gsim::Control* host = FindVisible(app, IsMenuHost);
    ASSERT_NE(host, nullptr);
    ASSERT_TRUE(app.Click(*host).ok());
    ASSERT_TRUE(host->popup_open());
    ExpectTopSliceMatchesWalk(app, "menu '" + host->TrueName() + "' open");
  }
  {
    App app;
    gsim::Control* host = FindVisible(app, IsPaletteHost);
    ASSERT_NE(host, nullptr);
    ASSERT_TRUE(app.Click(*host).ok());
    ASSERT_TRUE(host->popup_open());
    ExpectTopSliceMatchesWalk(app, "shared palette open from '" + host->TrueName() + "'");
  }
  {
    App app;
    gsim::Control* opener = RevealDialogOpener(app);
    ASSERT_NE(opener, nullptr);
    ASSERT_TRUE(app.Click(*opener).ok());
    ASSERT_NE(app.TopWindow(), &app.main_window());
    ASSERT_TRUE(app.TopWindow()->modal());
    ExpectTopSliceMatchesWalk(app, "dialog '" + app.TopWindow()->title() + "' on top");
  }
  {
    App app;
    gsim::Control* pane = FindVisible(app, [](const gsim::Control& c) {
      return c.Type() == uia::ControlType::kPane && c.parent_control() != nullptr &&
             !c.StaticChildren().empty();
    });
    ASSERT_NE(pane, nullptr);
    const size_t shown = WalkVisible(app.main_window().root()).size();
    pane->SetForcedOffscreen(true);
    ASSERT_LT(WalkVisible(app.main_window().root()).size(), shown);
    ExpectTopSliceMatchesWalk(app, "pane '" + pane->TrueName() + "' forced offscreen");
  }
  {
    App app;
    gsim::InstabilityConfig slow;
    slow.slow_load_rate = 1.0;
    slow.slow_load_ticks = 2;
    gsim::InstabilityInjector injector(slow, 7);
    app.SetInstability(&injector);
    gsim::Control* host = FindVisible(app, IsMenuHost);
    ASSERT_NE(host, nullptr);
    ASSERT_TRUE(app.Click(*host).ok());
    ASSERT_TRUE(host->popup_open());
    ASSERT_TRUE(host->popup()->IsOffscreen());  // waiting for its reveal tick
    ExpectTopSliceMatchesWalk(app, "popup of '" + host->TrueName() + "' pending reveal");
    app.SetInstability(nullptr);
  }
  {
    App app;
    gsim::InstabilityConfig renames;
    renames.name_variation_rate = 1.0;
    gsim::InstabilityInjector injector(renames, 99);
    app.SetInstability(&injector);
    ExpectTopSliceMatchesWalk(app, "every name decorated");
    gsim::Control* host = FindVisible(app, IsMenuHost);
    ASSERT_NE(host, nullptr);
    ASSERT_TRUE(app.Click(*host).ok());
    ExpectTopSliceMatchesWalk(app, "every name decorated, menu open");
    app.SetInstability(nullptr);
  }
}

}  // namespace slices

TEST(VisibleIndexTest, WindowSliceMatchesWalkWord) {
  slices::ExpectSlicesMatchWalkAcrossStates<apps::WordSim>();
}

TEST(VisibleIndexTest, WindowSliceMatchesWalkExcel) {
  slices::ExpectSlicesMatchWalkAcrossStates<apps::ExcelSim>();
}

TEST(VisibleIndexTest, WindowSliceMatchesWalkPpoint) {
  slices::ExpectSlicesMatchWalkAcrossStates<apps::PpointSim>();
}

// ----- capture work counters -----------------------------------------------------------

namespace warm {

uint64_t IndexCounter(const std::string& name) {
  return support::MetricsRegistry::Global().Snapshot().CounterValue("visible_index." + name);
}

// While the UI generation holds, a lookup is one probe of the capture: one
// rebuild serves every id, and no lookup walks the tree. The first stale
// lookup after a bump walks once and leaves the rebuild to the next capture.
// The capture flushes its tallies when its application's lease is reset, so
// a reset closes each phase.
template <typename App>
void ExpectWarmLookupsNeverWalk() {
  App app;
  app.CaptureFreshState();
  gsim::Capture& index = app.capture();
  const uint64_t rebuilds = IndexCounter("rebuilds");
  const uint64_t lookups = IndexCounter("lookups");
  const uint64_t cold_walks = IndexCounter("cold_walks");
  size_t entries = 0;
  std::string probe_id;
  gsim::Control* probe = nullptr;
  {
    const std::span<const gsim::CaptureEntry> captured = index.Visible();
    ASSERT_FALSE(captured.empty());
    std::map<std::string, gsim::Control*> first;
    for (const gsim::CaptureEntry& entry : captured) {
      first.emplace(entry.control_id, entry.control);
    }
    for (const gsim::CaptureEntry& entry : captured) {
      EXPECT_EQ(index.FindById(entry.control_id), first.at(entry.control_id))
          << entry.control_id;
    }
    entries = captured.size();
    probe_id = captured.back().control_id;
    probe = first.at(probe_id);
  }
  app.ResetToFreshState();
  EXPECT_EQ(IndexCounter("rebuilds") - rebuilds, 1u);
  EXPECT_EQ(IndexCounter("lookups") - lookups, entries);
  EXPECT_EQ(IndexCounter("cold_walks") - cold_walks, 0u);

  const uint64_t warm_rebuilds = IndexCounter("rebuilds");
  const uint64_t warm_cold_walks = IndexCounter("cold_walks");
  (void)index.Visible();
  app.BumpUiGeneration();
  EXPECT_EQ(index.FindById(probe_id), probe);
  app.ResetToFreshState();
  EXPECT_EQ(IndexCounter("rebuilds") - warm_rebuilds, 1u);  // the capture only
  EXPECT_EQ(IndexCounter("cold_walks") - warm_cold_walks, 1u);
}

}  // namespace warm

TEST(VisibleIndexTest, WarmLookupsNeverWalkWord) {
  warm::ExpectWarmLookupsNeverWalk<apps::WordSim>();
}

TEST(VisibleIndexTest, WarmLookupsNeverWalkExcel) {
  warm::ExpectWarmLookupsNeverWalk<apps::ExcelSim>();
}

TEST(VisibleIndexTest, WarmLookupsNeverWalkPpoint) {
  warm::ExpectWarmLookupsNeverWalk<apps::PpointSim>();
}

namespace warm {

// Once a capture has sized its buffers, rebuilding an unchanged UI state
// reuses them: the walk refills the entries, ids are rewritten in place,
// ancestor paths share one buffer and the id table keeps its arrays, so the
// rebuild allocates nothing.
template <typename App>
void ExpectWarmRebuildAllocatesNothing() {
  App app;
  gsim::Capture& index = app.capture();
  const size_t entries = index.Visible().size();
  app.BumpUiGeneration();
  bool rebuilt = false;
  size_t allocations = 0;
  size_t rebuilt_entries = 0;
  {
    AllocationCounter counter;
    rebuilt_entries = index.Visible(&rebuilt).size();
    allocations = counter.count();
  }
  EXPECT_TRUE(rebuilt);
  EXPECT_EQ(rebuilt_entries, entries);
  EXPECT_EQ(allocations, 0u) << "rebuilding " << entries << " entries";
}

}  // namespace warm

TEST(VisibleIndexTest, WarmRebuildAllocatesNothingWord) {
  warm::ExpectWarmRebuildAllocatesNothing<apps::WordSim>();
}

TEST(VisibleIndexTest, WarmRebuildAllocatesNothingExcel) {
  warm::ExpectWarmRebuildAllocatesNothing<apps::ExcelSim>();
}

TEST(VisibleIndexTest, WarmRebuildAllocatesNothingPpoint) {
  warm::ExpectWarmRebuildAllocatesNothing<apps::PpointSim>();
}

// ----- non-unique ids --------------------------------------------------------------

// Non-unique ids (paper §5.7): two same-named buttons under the main window's
// root, and a third under a dialog titled like the main window, all
// synthesize "Twin|Button|DupApp".
class DuplicateIdApp : public gsim::Application {
 public:
  DuplicateIdApp() : gsim::Application("DupApp") {
    gsim::Control& root = main_window().root();
    first = root.NewChild("Twin", uia::ControlType::kButton);
    second = root.NewChild("Twin", uia::ControlType::kButton);
    opener = root.NewChild("Open", uia::ControlType::kButton)->SetDialogId("twin-dialog");
    auto window = std::make_unique<gsim::Window>("DupApp", /*modal=*/false);
    in_dialog = window->root().NewChild("Twin", uia::ControlType::kButton);
    dialog = RegisterDialog("twin-dialog", std::move(window));
  }

  gsim::Control* first;
  gsim::Control* second;
  gsim::Control* opener;
  gsim::Control* in_dialog;
  gsim::Window* dialog;
};

TEST(VisibleIndexTest, DuplicateIdsResolveInPreOrder) {
  const std::string twin = "Twin|Button|DupApp";
  DuplicateIdApp app;
  ASSERT_EQ(SynthesizeControlId(*app.second), twin);
  gsim::Capture& index = app.capture();
  // Stale (an early-exit walk), then fresh, then warm: the first in pre-order.
  EXPECT_EQ(index.FindById(twin), app.first);
  EXPECT_EQ(index.FindByIdEnsureFresh(twin), app.first);
  EXPECT_EQ(index.FindById(twin), app.first);

  ASSERT_TRUE(app.Click(*app.opener).ok());
  ASSERT_EQ(app.TopWindow(), app.dialog);
  ASSERT_EQ(SynthesizeControlId(*app.in_dialog), twin);
  // Each window's probe returns that window's first match; the unscoped
  // lookups still return the main window's first button.
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "after the dialog opened" : "after a rebuild");
    EXPECT_EQ(index.FindById(twin), app.first);
    EXPECT_EQ(index.FindByIdEnsureFresh(twin), app.first);
    EXPECT_EQ(index.FindById(twin), app.first);
    EXPECT_EQ(index.FindByIdInWindow(twin, app.dialog), app.in_dialog);
    EXPECT_EQ(index.FindByIdInWindow(twin, &app.main_window()), app.first);
    EXPECT_EQ(index.FindByIdInWindow("DupApp|Window|", app.dialog), &app.dialog->root());
    EXPECT_EQ(index.FindByIdInWindow("Missing|Button|DupApp", app.dialog), nullptr);
    app.BumpUiGeneration();
  }

  // With the first button hidden, the second is first in pre-order.
  app.first->SetForcedOffscreen(true);
  EXPECT_EQ(index.FindById(twin), app.second);
  EXPECT_EQ(index.FindByIdEnsureFresh(twin), app.second);
  EXPECT_EQ(index.FindById(twin), app.second);
  EXPECT_EQ(index.FindByIdInWindow(twin, &app.main_window()), app.second);
  EXPECT_EQ(index.FindByIdInWindow(twin, app.dialog), app.in_dialog);
}

// A stale lookup over a walk that wrote no id (the screen's walk) writes ids
// up to its match and walks no second time; a later id query still builds
// the generation's id capture.
TEST(CaptureTest, StaleLookupOverAWalkWithoutIdsDoesNotWalkAgain) {
  const std::string twin = "Twin|Button|DupApp";
  DuplicateIdApp app;
  gsim::Capture& capture = app.capture();
  capture.Refresh();
  const uint64_t walks = capture.walks();
  EXPECT_EQ(capture.FindById(twin), app.first);
  EXPECT_EQ(capture.FindById("Missing|Button|DupApp"), nullptr);
  EXPECT_EQ(capture.walks(), walks);
  bool rebuilt = false;
  EXPECT_EQ(capture.FindByIdEnsureFresh(twin, &rebuilt), app.first);
  EXPECT_TRUE(rebuilt);
  EXPECT_EQ(capture.walks(), walks);
}

// ----- full-app rip (Word) -----------------------------------------------------------

TEST(RipperTest, WordRipReachesPaperScale) {
  apps::WordSim app;
  ripper::RipperConfig config;
  config.blocklist = {"Account", "Feedback"};
  ripper::GuiRipper r(app, config);
  topo::NavGraph graph = r.Rip();
  // §5.2: raw modeled graphs exceed 4K controls.
  EXPECT_GT(graph.node_count(), 4000u) << graph.node_count();
  topo::GraphStats stats = graph.ComputeStats();
  EXPECT_GT(stats.merge_nodes, 0u);
  // Word's UI has cycles (the Text Effects pane pair).
  auto decycled = topo::Decycle(graph);
  EXPECT_GT(decycled.removed_back_edges, 0u);
  // And the full pipeline validates.
  topo::Forest forest =
      topo::SelectiveExternalize(decycled.dag, topo::kDefaultExternalizeThreshold);
  auto report = topo::ValidateForest(decycled.dag, forest);
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);
}

}  // namespace
