#include <gtest/gtest.h>

#include "src/gui/application.h"
#include "src/gui/input.h"
#include "src/gui/instability.h"
#include "src/gui/screen.h"
#include "src/gui/window.h"
#include "src/uia/tree.h"

#include <algorithm>
#include <limits>
#include <optional>

namespace {

// A small app with menus, a dialog, tabs, and an external trap — enough to
// exercise every click effect.
class MiniApp : public gsim::Application {
 public:
  MiniApp() : gsim::Application("MiniApp") {
    gsim::Control& root = main_window().root();

    gsim::Control* tabs = root.NewChild("Tabs", uia::ControlType::kTab);
    tab_a_ = tabs->NewChild("Tab A", uia::ControlType::kTabItem);
    tab_a_->SetClickEffect(gsim::ClickEffect::kSwitchTab);
    gsim::Control* panel_a =
        tab_a_->SetPopup(std::make_unique<gsim::Control>("Panel A", uia::ControlType::kPane));
    tab_a_->SetClickEffect(gsim::ClickEffect::kSwitchTab);
    tab_a_->set_selected(true);
    tab_a_->SetPopupOpen(true);
    tab_b_ = tabs->NewChild("Tab B", uia::ControlType::kTabItem);
    tab_b_->SetClickEffect(gsim::ClickEffect::kSwitchTab);
    gsim::Control* panel_b =
        tab_b_->SetPopup(std::make_unique<gsim::Control>("Panel B", uia::ControlType::kPane));
    tab_b_->SetClickEffect(gsim::ClickEffect::kSwitchTab);

    menu_host_ = panel_a->NewChild("Menu", uia::ControlType::kMenuItem);
    auto popup = std::make_unique<gsim::Control>("Menu Popup", uia::ControlType::kMenu);
    action_item_ = popup->NewChild("Do Thing", uia::ControlType::kButton);
    action_item_->SetCommand("do.thing");
    submenu_host_ = popup->NewChild("Submenu", uia::ControlType::kMenuItem);
    auto subpopup = std::make_unique<gsim::Control>("Sub Popup", uia::ControlType::kMenu);
    sub_item_ = subpopup->NewChild("Deep Thing", uia::ControlType::kButton);
    sub_item_->SetCommand("deep.thing");
    submenu_host_->SetPopup(std::move(subpopup));
    menu_host_->SetPopup(std::move(popup));

    launcher_ = panel_b->NewChild("Open Dialog", uia::ControlType::kButton);
    launcher_->SetDialogId("dlg");

    external_ = panel_a->NewChild("Web Link", uia::ControlType::kHyperlink);
    external_->SetClickEffect(gsim::ClickEffect::kExternal);

    edit_ = panel_a->NewChild("Name Field", uia::ControlType::kEdit);

    auto dialog = std::make_unique<gsim::Window>("Dialog", /*modal=*/true);
    dlg_ok_ = dialog->root().NewChild("OK", uia::ControlType::kButton);
    dlg_ok_->SetCloseDisposition(gsim::CloseDisposition::kCommit);
    dlg_ok_->SetCommand("dlg.commit");
    dlg_ok_->SetClickEffect(gsim::ClickEffect::kCloseWindow);
    dlg_cancel_ = dialog->root().NewChild("Cancel", uia::ControlType::kButton);
    dlg_cancel_->SetCloseDisposition(gsim::CloseDisposition::kCancel);
    dialog->root().NewChild("Some Option", uia::ControlType::kCheckBox)
        ->SetClickEffect(gsim::ClickEffect::kToggle);
    RegisterDialog("dlg", std::move(dialog));
  }

  support::Status ExecuteCommand(gsim::Control& source, const std::string& command) override {
    (void)source;
    commands.push_back(command);
    return support::Status::Ok();
  }

  std::vector<std::string> commands;
  gsim::Control* tab_a_;
  gsim::Control* tab_b_;
  gsim::Control* menu_host_;
  gsim::Control* action_item_;
  gsim::Control* submenu_host_;
  gsim::Control* sub_item_;
  gsim::Control* launcher_;
  gsim::Control* external_;
  gsim::Control* edit_;
  gsim::Control* dlg_ok_;
  gsim::Control* dlg_cancel_;
};

TEST(GuiClickTest, MenuRevealsAndCommandCloses) {
  MiniApp app;
  EXPECT_FALSE(app.IsAttached(*app.action_item_));
  ASSERT_TRUE(app.Click(*app.menu_host_).ok());
  EXPECT_TRUE(app.IsAttached(*app.action_item_));
  ASSERT_TRUE(app.Click(*app.action_item_).ok());
  EXPECT_EQ(app.commands, std::vector<std::string>{"do.thing"});
  // Invoking a functional item dismisses the menu.
  EXPECT_FALSE(app.IsAttached(*app.action_item_));
}

TEST(GuiClickTest, NestedMenusOpenAndCollapseTogether) {
  MiniApp app;
  ASSERT_TRUE(app.Click(*app.menu_host_).ok());
  ASSERT_TRUE(app.Click(*app.submenu_host_).ok());
  EXPECT_TRUE(app.IsAttached(*app.sub_item_));
  // Clicking something outside the chain closes both levels.
  ASSERT_TRUE(app.Click(*app.edit_).ok());
  EXPECT_FALSE(app.IsAttached(*app.sub_item_));
  EXPECT_FALSE(app.IsAttached(*app.action_item_));
}

TEST(GuiClickTest, ClickOnHiddenControlFails) {
  MiniApp app;
  support::Status s = app.Click(*app.action_item_);
  EXPECT_EQ(s.code(), support::StatusCode::kNotFound);
}

TEST(GuiClickTest, DisabledControlFailsWithStructuredError) {
  MiniApp app;
  app.menu_host_->SetEnabled(false);
  support::Status s = app.Click(*app.menu_host_);
  EXPECT_EQ(s.code(), support::StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("disabled"), std::string::npos);
}

TEST(GuiClickTest, TabSwitchIsExclusive) {
  MiniApp app;
  EXPECT_TRUE(app.IsAttached(*app.menu_host_));   // panel A visible
  EXPECT_FALSE(app.IsAttached(*app.launcher_));   // panel B hidden
  ASSERT_TRUE(app.Click(*app.tab_b_).ok());
  EXPECT_FALSE(app.IsAttached(*app.menu_host_));
  EXPECT_TRUE(app.IsAttached(*app.launcher_));
  EXPECT_TRUE(app.tab_b_->selected());
  EXPECT_FALSE(app.tab_a_->selected());
}

TEST(GuiClickTest, DialogOpensAndStacksOnTop) {
  MiniApp app;
  ASSERT_TRUE(app.Click(*app.tab_b_).ok());
  ASSERT_TRUE(app.Click(*app.launcher_).ok());
  ASSERT_EQ(app.OpenWindows().size(), 2u);
  EXPECT_EQ(app.TopWindow()->title(), "Dialog");
  EXPECT_TRUE(app.TopWindow()->modal());
}

TEST(GuiClickTest, OkCommitsCommandAndClosesDialog) {
  MiniApp app;
  ASSERT_TRUE(app.Click(*app.tab_b_).ok());
  ASSERT_TRUE(app.Click(*app.launcher_).ok());
  ASSERT_TRUE(app.Click(*app.dlg_ok_).ok());
  EXPECT_EQ(app.OpenWindows().size(), 1u);
  EXPECT_EQ(app.commands, std::vector<std::string>{"dlg.commit"});
}

TEST(GuiClickTest, CancelClosesWithoutCommand) {
  MiniApp app;
  ASSERT_TRUE(app.Click(*app.tab_b_).ok());
  ASSERT_TRUE(app.Click(*app.launcher_).ok());
  ASSERT_TRUE(app.Click(*app.dlg_cancel_).ok());
  EXPECT_EQ(app.OpenWindows().size(), 1u);
  EXPECT_TRUE(app.commands.empty());
}

TEST(GuiClickTest, EscClosesMenuThenDialog) {
  MiniApp app;
  ASSERT_TRUE(app.Click(*app.menu_host_).ok());
  ASSERT_TRUE(app.PressKey("ESC").ok());
  EXPECT_FALSE(app.IsAttached(*app.action_item_));
  ASSERT_TRUE(app.Click(*app.tab_b_).ok());
  ASSERT_TRUE(app.Click(*app.launcher_).ok());
  ASSERT_TRUE(app.PressKey("ESC").ok());
  EXPECT_EQ(app.OpenWindows().size(), 1u);
}

TEST(GuiClickTest, ExternalStateBlocksEverythingUntilReset) {
  MiniApp app;
  ASSERT_TRUE(app.Click(*app.external_).ok());
  EXPECT_TRUE(app.in_external_state());
  EXPECT_EQ(app.Click(*app.menu_host_).code(), support::StatusCode::kFailedPrecondition);
  EXPECT_EQ(app.PressKey("ESC").code(), support::StatusCode::kFailedPrecondition);
  app.ResetUiState();
  EXPECT_FALSE(app.in_external_state());
  EXPECT_TRUE(app.Click(*app.menu_host_).ok());
}

TEST(GuiClickTest, ResetUiStateClosesEverything) {
  MiniApp app;
  gsim::Control* pane_host = app.tab_a_->popup()->NewChild("Pane Host", uia::ControlType::kButton);
  pane_host->SetPopupPersistent(true);
  gsim::Control* pane =
      pane_host->SetPopup(std::make_unique<gsim::Control>("Side Pane", uia::ControlType::kPane));
  ASSERT_TRUE(app.Click(*pane_host).ok());
  ASSERT_TRUE(app.Click(*app.menu_host_).ok());
  ASSERT_TRUE(app.Click(*app.submenu_host_).ok());
  ASSERT_TRUE(app.IsAttached(*pane));  // menus leave a persistent pane open
  app.ResetUiState();
  EXPECT_FALSE(app.IsAttached(*app.action_item_));
  EXPECT_FALSE(app.IsAttached(*pane));
  EXPECT_EQ(app.OpenWindows().size(), 1u);
}

TEST(GuiClickTest, TypeTextRequiresFocus) {
  MiniApp app;
  EXPECT_EQ(app.TypeText("x").code(), support::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(app.Click(*app.edit_).ok());  // focuses the edit
  ASSERT_TRUE(app.TypeText("hello").ok());
  EXPECT_EQ(app.edit_->text_value(), "hello");
}

TEST(GuiClickTest, WindowDisposeButtonPriority) {
  MiniApp app;
  gsim::Window* dlg = app.FindDialog("dlg");
  ASSERT_NE(dlg, nullptr);
  // OK (commit) outranks Cancel.
  EXPECT_EQ(dlg->FindDisposeButton()->TrueName(), "OK");
}

TEST(GuiClickTest, ToggleFlipsAndStats) {
  MiniApp app;
  ASSERT_TRUE(app.Click(*app.tab_b_).ok());
  ASSERT_TRUE(app.Click(*app.launcher_).ok());
  uia::Element* cb = uia::FindByName(app.TopWindow()->root(), "Some Option");
  ASSERT_NE(cb, nullptr);
  gsim::Control* cbc = static_cast<gsim::Control*>(cb);
  ASSERT_TRUE(app.Click(*cbc).ok());
  EXPECT_TRUE(cbc->toggled());
  ASSERT_TRUE(app.Click(*cbc).ok());
  EXPECT_FALSE(cbc->toggled());
  EXPECT_GE(app.stats().clicks, 4u);
}

// ----- screen labeling / input driver -------------------------------------------

TEST(ScreenTest, IndexToLabelSequence) {
  EXPECT_EQ(gsim::IndexToLabel(0), "A");
  EXPECT_EQ(gsim::IndexToLabel(25), "Z");
  EXPECT_EQ(gsim::IndexToLabel(26), "AA");
  EXPECT_EQ(gsim::IndexToLabel(27), "AB");
  EXPECT_EQ(gsim::IndexToLabel(26 + 26 * 26), "AAA");
}

TEST(ScreenTest, LabelToIndexInvertsIndexToLabel) {
  // Around the Z->AA and ZZ->AAA boundaries, and at the far end of size_t.
  const size_t zz = 26 + 26 * 26 - 1;
  for (size_t index : {size_t{0}, size_t{1}, size_t{24}, size_t{25}, size_t{26}, size_t{27},
                       size_t{51}, size_t{52}, zz - 1, zz, zz + 1, zz + 2,
                       std::numeric_limits<size_t>::max() - 1}) {
    const std::string label = gsim::IndexToLabel(index);
    EXPECT_EQ(gsim::LabelToIndex(label), index) << label;
  }
  EXPECT_EQ(gsim::IndexToLabel(zz), "ZZ");
  EXPECT_EQ(gsim::LabelToIndex("ZZ"), zz);
  EXPECT_EQ(gsim::LabelToIndex("AAA"), zz + 1);
}

TEST(ScreenTest, LabelToIndexRejectsMalformedLabels) {
  EXPECT_EQ(gsim::LabelToIndex(""), std::nullopt);
  EXPECT_EQ(gsim::LabelToIndex("a"), std::nullopt);    // lower case
  EXPECT_EQ(gsim::LabelToIndex("A1"), std::nullopt);   // digit
  EXPECT_EQ(gsim::LabelToIndex("A "), std::nullopt);   // space
  EXPECT_EQ(gsim::LabelToIndex("@"), std::nullopt);    // just below 'A'
  EXPECT_EQ(gsim::LabelToIndex("["), std::nullopt);    // just above 'Z'
  EXPECT_EQ(gsim::LabelToIndex(std::string(1, '\0')), std::nullopt);
  // IndexToLabel(SIZE_MAX) and anything longer do not fit in a size_t.
  EXPECT_EQ(gsim::LabelToIndex(gsim::IndexToLabel(std::numeric_limits<size_t>::max())),
            std::nullopt);
  EXPECT_EQ(gsim::LabelToIndex(std::string(14, 'Z')), std::nullopt);
  EXPECT_EQ(gsim::LabelToIndex(std::string(100, 'A')), std::nullopt);
}

TEST(ScreenTest, LabelsOnlyVisibleControls) {
  MiniApp app;
  gsim::ScreenView screen(app);
  screen.Refresh();
  const size_t visible_before = screen.VisibleCount();
  EXPECT_EQ(screen.LabelOf(*app.action_item_), "");  // hidden in closed menu
  ASSERT_TRUE(app.Click(*app.menu_host_).ok());
  screen.Refresh();
  EXPECT_GT(screen.VisibleCount(), visible_before);
  EXPECT_NE(screen.LabelOf(*app.action_item_), "");
}

TEST(ScreenTest, FindByLabelRoundTrip) {
  MiniApp app;
  gsim::ScreenView screen(app);
  screen.Refresh();
  const auto labeled = screen.labeled();
  for (size_t i = 0; i < labeled.size(); ++i) {
    EXPECT_EQ(screen.FindByLabel(gsim::IndexToLabel(i)), labeled[i].control);
  }
  EXPECT_EQ(screen.FindByLabel("ZZZ"), nullptr);
  EXPECT_EQ(screen.FindByLabel(gsim::IndexToLabel(labeled.size())), nullptr);
  EXPECT_EQ(screen.FindByLabel(""), nullptr);
  EXPECT_EQ(screen.FindByLabel("a"), nullptr);
}

TEST(ScreenTest, ListingShowsStates) {
  MiniApp app;
  app.menu_host_->SetEnabled(false);
  gsim::ScreenView screen(app);
  screen.Refresh();
  std::string listing = screen.RenderListing();
  EXPECT_NE(listing.find("Menu (MenuItem) [disabled]"), std::string::npos);
  EXPECT_NE(listing.find("Tab A (TabItem) [selected]"), std::string::npos);
}

TEST(InputTest, ClickAtHitsLaidOutControl) {
  MiniApp app;
  gsim::ScreenView screen(app);
  screen.Refresh();
  gsim::InputDriver input(app, screen, nullptr);
  ASSERT_TRUE(input.ClickAt(app.menu_host_->rect().Center()).ok());
  EXPECT_TRUE(app.IsAttached(*app.action_item_));
}

TEST(InputTest, CoordinateNoiseCanMissTarget) {
  MiniApp app;
  gsim::InstabilityConfig cfg;
  cfg.misclick_sigma_px = 60.0;  // huge noise: nearly always lands elsewhere
  gsim::InstabilityInjector injector(cfg, 1);
  gsim::ScreenView screen(app);
  screen.Refresh();
  gsim::InputDriver input(app, screen, &injector);
  int miss = 0;
  for (int i = 0; i < 40; ++i) {
    app.ResetUiState();
    screen.Refresh();
    (void)input.ClickControlByCoordinates(*app.menu_host_);
    if (!app.menu_host_->popup_open()) {
      ++miss;
    }
  }
  EXPECT_GT(miss, 5);  // noisy grounding misses a meaningful fraction
}

TEST(InstabilityTest, NameDecorationDeterministicPerControl) {
  MiniApp app;
  gsim::InstabilityConfig cfg;
  cfg.name_variation_rate = 1.0;  // decorate everything
  gsim::InstabilityInjector injector(cfg, 77);
  app.SetInstability(&injector);
  const std::string n1 = app.menu_host_->Name();
  const std::string n2 = app.menu_host_->Name();
  EXPECT_EQ(n1, n2);
  EXPECT_NE(n1, app.menu_host_->TrueName());
}

TEST(InstabilityTest, ZeroRatesAreNoOps) {
  MiniApp app;
  gsim::InstabilityInjector injector(gsim::InstabilityConfig::None(), 5);
  app.SetInstability(&injector);
  EXPECT_EQ(app.menu_host_->Name(), app.menu_host_->TrueName());
  EXPECT_FALSE(injector.ClickSilentlyFails(*app.menu_host_));
  EXPECT_EQ(injector.PopupRevealDelay(*app.menu_host_), 0u);
  gsim::Point p{10, 20};
  gsim::Point q = injector.PerturbPoint(p);
  EXPECT_EQ(p.x, q.x);
  EXPECT_EQ(p.y, q.y);
}

TEST(InstabilityTest, SlowLoadDelaysPopupVisibility) {
  MiniApp app;
  gsim::InstabilityConfig cfg;
  cfg.slow_load_rate = 1.0;
  cfg.slow_load_ticks = 1;
  gsim::InstabilityInjector injector(cfg, 3);
  app.SetInstability(&injector);
  ASSERT_TRUE(app.Click(*app.menu_host_).ok());
  // Popup attached but still offscreen (loading).
  EXPECT_TRUE(app.menu_host_->popup_open());
  EXPECT_TRUE(app.action_item_->IsOffscreen());
  app.Tick();
  app.Tick();
  EXPECT_FALSE(app.action_item_->IsOffscreen());
}

TEST(InstabilityTest, SilentClickFailureLeavesStateUnchanged) {
  MiniApp app;
  gsim::InstabilityConfig cfg;
  cfg.click_fail_rate = 1.0;
  gsim::InstabilityInjector injector(cfg, 9);
  app.SetInstability(&injector);
  ASSERT_TRUE(app.Click(*app.menu_host_).ok());  // click "succeeds"...
  EXPECT_FALSE(app.menu_host_->popup_open());    // ...but nothing happened
}

TEST(GuiClickTest, RevealExistingOpensAncestorChain) {
  MiniApp app;
  gsim::Control* back = app.tab_a_->popup()->NewChild("Back", uia::ControlType::kButton);
  back->SetRevealTarget(app.sub_item_);
  ASSERT_TRUE(app.Click(*back).ok());
  EXPECT_TRUE(app.IsAttached(*app.sub_item_));
}


TEST(GuiClickTest, ClosePaneEffectClosesPersistentPane) {
  MiniApp app;
  // Graft a persistent pane with a Close Pane button onto panel A.
  gsim::Control* host = app.tab_a_->popup()->NewChild("Pane Host", uia::ControlType::kButton);
  host->SetPopupPersistent(true);
  gsim::Control* pane =
      host->SetPopup(std::make_unique<gsim::Control>("Side Pane", uia::ControlType::kPane));
  gsim::Control* content = pane->NewChild("Pane Content", uia::ControlType::kText);
  gsim::Control* close = pane->NewChild("Close Pane", uia::ControlType::kButton);
  close->SetClickEffect(gsim::ClickEffect::kClosePane);

  ASSERT_TRUE(app.Click(*host).ok());
  EXPECT_TRUE(app.IsAttached(*content));
  // Unrelated clicks do NOT close a persistent pane.
  ASSERT_TRUE(app.Click(*app.edit_).ok());
  EXPECT_TRUE(app.IsAttached(*content));
  // The Close Pane button does.
  ASSERT_TRUE(app.Click(*close).ok());
  EXPECT_FALSE(app.IsAttached(*content));
}

TEST(GuiClickTest, ClosePaneOutsideAnyPaneFails) {
  MiniApp app;
  gsim::Control* stray = app.tab_a_->popup()->NewChild("Stray Close", uia::ControlType::kButton);
  stray->SetClickEffect(gsim::ClickEffect::kClosePane);
  EXPECT_EQ(app.Click(*stray).code(), support::StatusCode::kFailedPrecondition);
}

TEST(GuiClickTest, FloatingSharedPopupHasHostIndependentAncestry) {
  MiniApp app;
  gsim::Control* shared = app.RegisterSharedSubtree(
      std::make_unique<gsim::Control>("Float Panel", uia::ControlType::kList));
  gsim::Control* cell = shared->NewChild("Float Cell", uia::ControlType::kListItem);
  gsim::Control* host_a = app.tab_a_->popup()->NewChild("Host A", uia::ControlType::kMenuItem);
  host_a->SetSharedPopup(shared);
  ASSERT_TRUE(app.Click(*host_a).ok());
  // Public ancestry stops at the floating root; internal parent still climbs.
  EXPECT_EQ(uia::AncestorPath(*cell), "Float Panel");
  EXPECT_EQ(shared->Parent(), nullptr);
  EXPECT_NE(shared->parent_control(), nullptr);
  // The app-facing ancestor chain still carries the hosting path.
  std::vector<std::string> chain = app.OpenAncestorNames(*cell);
  EXPECT_NE(std::find(chain.begin(), chain.end(), "Host A"), chain.end());
}

TEST(GuiClickTest, ModalDialogBlocksLowerWindowClicks) {
  MiniApp app;
  ASSERT_TRUE(app.Click(*app.tab_b_).ok());
  ASSERT_TRUE(app.Click(*app.launcher_).ok());
  ASSERT_EQ(app.TopWindow()->title(), "Dialog");
  support::Status s = app.Click(*app.tab_a_);
  EXPECT_EQ(s.code(), support::StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("modal"), std::string::npos);
}

TEST(GuiClickTest, RenameToChangesAccessibleName) {
  MiniApp app;
  app.action_item_->RenameTo("Renamed Thing");
  EXPECT_EQ(app.action_item_->TrueName(), "Renamed Thing");
  EXPECT_EQ(app.action_item_->Name(), "Renamed Thing");
}


TEST(GuiClickTest, WindowListenersFireOnDialogOpenClose) {
  MiniApp app;
  std::vector<std::pair<std::string, bool>> events;
  app.AddWindowListener([&](gsim::Window& w, bool opened) {
    events.emplace_back(w.title(), opened);
  });
  ASSERT_TRUE(app.Click(*app.tab_b_).ok());
  ASSERT_TRUE(app.Click(*app.launcher_).ok());
  ASSERT_TRUE(app.Click(*app.dlg_cancel_).ok());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<std::string, bool>{"Dialog", true}));
  EXPECT_EQ(events[1], (std::pair<std::string, bool>{"Dialog", false}));
}

}  // namespace
