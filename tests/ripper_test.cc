#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/gui/application.h"
#include "src/gui/instability.h"
#include "src/ripper/identifier.h"
#include "src/ripper/ripper.h"
#include "src/ripper/visible_index.h"
#include "src/topology/transform.h"
#include "src/topology/validate.h"
#include "src/uia/tree.h"

namespace {

// ----- identifier synthesis --------------------------------------------------------

TEST(IdentifierTest, PrefersAutomationId) {
  uia::SnapshotEntry entry;
  entry.automation_id = "btnSave";
  entry.name = "Save";
  entry.type = uia::ControlType::kButton;
  entry.ancestor_path = "App/Toolbar";
  EXPECT_EQ(ripper::SynthesizeControlId(entry), "btnSave|Button|App/Toolbar");
}

TEST(IdentifierTest, FallsBackToNameThenUnnamed) {
  uia::SnapshotEntry entry;
  entry.name = "Save";
  entry.type = uia::ControlType::kButton;
  entry.ancestor_path = "App";
  EXPECT_EQ(ripper::SynthesizeControlId(entry), "Save|Button|App");
  entry.name = "";
  EXPECT_EQ(ripper::SynthesizeControlId(entry), "[Unnamed]|Button|App");
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
  uia::SnapshotEntry entry;
  entry.name = "We|ird";
  entry.type = uia::ControlType::kButton;
  entry.ancestor_path = "App/Toolbar";
  const std::string id = ripper::SynthesizeControlId(entry);
  EXPECT_EQ(id, "We|ird|Button|App/Toolbar");
  auto parsed = ripper::ParseControlId(id);
  EXPECT_EQ(parsed.primary_id, "We|ird");
  EXPECT_EQ(parsed.control_type, "Button");
  EXPECT_EQ(parsed.ancestor_path, "App/Toolbar");
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

// ----- determinism: index caching and parallel context ripping ----------------------

namespace determinism {

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

// Rips one app family with the index on and off; the graphs must be
// byte-identical (node order, ids, edges — everything).
template <typename App>
void ExpectCachedMatchesUncached(const std::vector<ripper::RipContext>& contexts,
                                 int max_depth) {
  ripper::RipperConfig config;
  config.blocklist = {"Account", "Feedback"};
  config.max_depth = max_depth;

  config.use_visible_index = true;
  App cached_app;
  ripper::GuiRipper cached(cached_app, config);
  const std::string cached_json = cached.Rip(contexts).ToJson().Dump();

  config.use_visible_index = false;
  App uncached_app;
  ripper::GuiRipper uncached(uncached_app, config);
  const std::string uncached_json = uncached.Rip(contexts).ToJson().Dump();

  EXPECT_EQ(cached_json, uncached_json);
  // Logical rip metrics must be unchanged by caching too.
  EXPECT_EQ(cached.stats().clicks, uncached.stats().clicks);
  EXPECT_EQ(cached.stats().captures, uncached.stats().captures);
  EXPECT_EQ(cached.stats().explored, uncached.stats().explored);
  EXPECT_DOUBLE_EQ(cached.stats().simulated_ms, uncached.stats().simulated_ms);
  // And the cache must actually have been exercised.
  EXPECT_GT(cached.stats().capture_cache_hits, 0u);
  EXPECT_EQ(uncached.stats().capture_cache_hits, 0u);
}

}  // namespace determinism

TEST(RipperDeterminismTest, CachedMatchesUncachedWord) {
  determinism::ExpectCachedMatchesUncached<apps::WordSim>({}, 4);
}

TEST(RipperDeterminismTest, CachedMatchesUncachedExcel) {
  determinism::ExpectCachedMatchesUncached<apps::ExcelSim>({}, 4);
}

TEST(RipperDeterminismTest, CachedMatchesUncachedPpointWithContext) {
  determinism::ExpectCachedMatchesUncached<apps::PpointSim>({determinism::ImageContext()},
                                                            4);
}

TEST(RipperDeterminismTest, ParallelContextsMatchSerial) {
  ripper::RipperConfig config;
  config.blocklist = {"Account", "Feedback"};
  config.max_depth = 4;

  ripper::ParallelRipOptions serial_options;
  serial_options.app_factory = [] { return std::make_unique<apps::PpointSim>(); };
  serial_options.pool = nullptr;
  ripper::RipResult serial =
      ripper::RipAppContexts(config, {determinism::ImageContext()}, serial_options);

  support::ThreadPool pool(3);
  ripper::ParallelRipOptions parallel_options = serial_options;
  parallel_options.pool = &pool;
  ripper::RipResult parallel =
      ripper::RipAppContexts(config, {determinism::ImageContext()}, parallel_options);

  EXPECT_EQ(serial.graph.ToJson().Dump(), parallel.graph.ToJson().Dump());
  EXPECT_EQ(serial.stats.clicks, parallel.stats.clicks);
  EXPECT_EQ(serial.stats.captures, parallel.stats.captures);
  EXPECT_EQ(serial.stats.explored, parallel.stats.explored);
  // The contextual tab reached through the image context must be present.
  bool tab = false;
  for (size_t i = 0; i < parallel.graph.node_count(); ++i) {
    tab |= parallel.graph.node(static_cast<int>(i)).name == "Picture Format";
  }
  EXPECT_TRUE(tab);
}

TEST(RipperDeterminismTest, SingleContextParallelMatchesClassicRipCanonicalized) {
  // With no extra contexts there is no shared-exploration divergence, so the
  // independent-context rip equals the classic Rip() up to node ordering.
  ripper::RipperConfig config;
  config.blocklist = {"Account", "Feedback"};
  config.max_depth = 4;

  apps::WordSim app;
  ripper::GuiRipper classic(app, config);
  const std::string classic_json = classic.Rip().Canonicalized().ToJson().Dump();

  ripper::ParallelRipOptions options;
  options.app_factory = [] { return std::make_unique<apps::WordSim>(); };
  ripper::RipResult independent = ripper::RipAppContexts(config, {}, options);

  EXPECT_EQ(classic_json, independent.graph.ToJson().Dump());
}

// ----- visible-index window slices ------------------------------------------------

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
  ripper::VisibleIndex index(app);
  gsim::Window* top = app.TopWindow();
  ASSERT_NE(top, nullptr);
  const std::span<const ripper::VisibleEntry> slice = index.TopWindowEntries();
  const std::vector<gsim::Control*> walked = WalkVisible(top->root());
  ASSERT_FALSE(walked.empty());
  ASSERT_EQ(slice.size(), walked.size());
  for (size_t i = 0; i < walked.size(); ++i) {
    ASSERT_EQ(slice[i].control, walked[i]) << "entry " << i;
    EXPECT_EQ(slice[i].control_id, ripper::SynthesizeControlId(*walked[i])) << "entry " << i;
    EXPECT_EQ(slice[i].ancestor_path(), uia::AncestorPath(*walked[i])) << "entry " << i;
  }
  const std::vector<ripper::VisibleEntry>& all = index.Visible();
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
