#include <gtest/gtest.h>

#include "src/gui/application.h"
#include "src/gui/control.h"
#include "src/uia/control_type.h"
#include "src/uia/tree.h"

namespace {

// ----- control types / patterns ----------------------------------------------

TEST(ControlTypeTest, FortyOneTypesWithUniqueNames) {
  std::set<std::string> names;
  for (int i = 0; i < uia::kNumControlTypes; ++i) {
    names.insert(std::string(uia::ControlTypeName(static_cast<uia::ControlType>(i))));
  }
  EXPECT_EQ(names.size(), 41u);
}

TEST(ControlTypeTest, RoundTripByName) {
  for (int i = 0; i < uia::kNumControlTypes; ++i) {
    auto t = static_cast<uia::ControlType>(i);
    auto parsed = uia::ControlTypeFromName(uia::ControlTypeName(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(uia::ControlTypeFromName("NotAType").has_value());
}

TEST(ControlTypeTest, ThirtyFourPatternsWithUniqueNames) {
  std::set<std::string> names;
  for (int i = 0; i < uia::kNumPatterns; ++i) {
    names.insert(std::string(uia::PatternName(static_cast<uia::PatternId>(i))));
  }
  EXPECT_EQ(names.size(), 34u);
}

TEST(ControlTypeTest, KeyTypesMatchPaperList) {
  // §4.2: full descriptions are attached for Menu, TabItem, ComboBox, Group,
  // Button (and kin).
  EXPECT_TRUE(uia::IsKeyControlType(uia::ControlType::kMenu));
  EXPECT_TRUE(uia::IsKeyControlType(uia::ControlType::kTabItem));
  EXPECT_TRUE(uia::IsKeyControlType(uia::ControlType::kComboBox));
  EXPECT_TRUE(uia::IsKeyControlType(uia::ControlType::kGroup));
  EXPECT_TRUE(uia::IsKeyControlType(uia::ControlType::kButton));
  EXPECT_FALSE(uia::IsKeyControlType(uia::ControlType::kText));
  EXPECT_FALSE(uia::IsKeyControlType(uia::ControlType::kDataItem));
}

// ----- tree walking (over a small gsim app) ------------------------------------

class TreeFixture : public ::testing::Test {
 protected:
  TreeFixture() : app_("TestApp") {
    gsim::Control& root = app_.main_window().root();
    gsim::Control* bar = root.NewChild("Bar", uia::ControlType::kToolBar);
    bar->NewChild("Alpha", uia::ControlType::kButton)->SetCommand("a");
    gsim::Control* menu_host = bar->NewChild("Menu Host", uia::ControlType::kMenuItem);
    auto popup = std::make_unique<gsim::Control>("Popup", uia::ControlType::kMenu);
    popup->NewChild("Hidden Item", uia::ControlType::kButton)->SetCommand("h");
    menu_host->SetPopup(std::move(popup));
    root.NewChild("Beta", uia::ControlType::kText);
  }

  gsim::Application app_;
};

TEST_F(TreeFixture, CountNodesExcludesClosedPopups) {
  // root + Bar + Alpha + MenuHost + Beta = 5 (popup closed).
  EXPECT_EQ(uia::CountNodes(app_.main_window().root()), 5u);
}

TEST_F(TreeFixture, CountNodesIncludesOpenPopups) {
  gsim::Control* host =
      static_cast<gsim::Control*>(uia::FindByName(app_.main_window().root(), "Menu Host"));
  ASSERT_NE(host, nullptr);
  ASSERT_TRUE(app_.Click(*host).ok());
  EXPECT_EQ(uia::CountNodes(app_.main_window().root()), 7u);
}

TEST_F(TreeFixture, FindByNameAndRuntimeId) {
  uia::Element* alpha = uia::FindByName(app_.main_window().root(), "Alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->Name(), "Alpha");
  EXPECT_EQ(uia::FindByRuntimeId(app_.main_window().root(), alpha->RuntimeId()), alpha);
  EXPECT_EQ(uia::FindByName(app_.main_window().root(), "Nope"), nullptr);
}

TEST_F(TreeFixture, MaxDepth) {
  EXPECT_EQ(uia::MaxDepth(app_.main_window().root()), 3);
}

TEST_F(TreeFixture, AncestorPath) {
  uia::Element* alpha = uia::FindByName(app_.main_window().root(), "Alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(uia::AncestorPath(*alpha), "TestApp/Bar");
}

TEST_F(TreeFixture, WalkPrunesSubtree) {
  size_t visited = 0;
  uia::Walk(app_.main_window().root(), [&](uia::Element& e, int) {
    ++visited;
    return e.Name() != "Bar";  // prune below Bar
  });
  EXPECT_EQ(visited, 3u);  // root, Bar, Beta
}

TEST_F(TreeFixture, FindAllByPredicate) {
  auto buttons = uia::FindAll(app_.main_window().root(), [](uia::Element& e) {
    return e.Type() == uia::ControlType::kButton;
  });
  EXPECT_EQ(buttons.size(), 1u);  // popup closed, so "Hidden Item" not reachable
}

// ----- pattern adapters ----------------------------------------------------------

TEST(PatternTest, InvokeAdapterClicksThroughApplication) {
  gsim::Application app("A");
  gsim::Control* b = app.main_window().root().NewChild("B", uia::ControlType::kButton);
  b->SetCommand("x");
  app.main_window().root().PropagateContext(&app.main_window(), &app);
  auto* invoke = uia::PatternCast<uia::InvokePattern>(*b);
  ASSERT_NE(invoke, nullptr);
  EXPECT_TRUE(invoke->Invoke().ok());
  EXPECT_EQ(app.stats().clicks, 1u);
}

TEST(PatternTest, UnsupportedPatternReturnsNull) {
  gsim::Application app("A");
  gsim::Control* t = app.main_window().root().NewChild("T", uia::ControlType::kText);
  EXPECT_EQ(t->GetPattern(uia::PatternId::kScroll), nullptr);
  EXPECT_EQ(t->GetPattern(uia::PatternId::kToggle), nullptr);
}

TEST(PatternTest, ToggleAdapterFlipsState) {
  gsim::Application app("A");
  gsim::Control* cb = app.main_window().root().NewChild("CB", uia::ControlType::kCheckBox);
  cb->SetClickEffect(gsim::ClickEffect::kToggle);
  app.main_window().root().PropagateContext(&app.main_window(), &app);
  auto* toggle = uia::PatternCast<uia::TogglePattern>(*cb);
  ASSERT_NE(toggle, nullptr);
  EXPECT_EQ(toggle->State(), uia::ToggleState::kOff);
  ASSERT_TRUE(toggle->Toggle().ok());
  EXPECT_EQ(toggle->State(), uia::ToggleState::kOn);
}

TEST(PatternTest, ExpandCollapseOnPopupHost) {
  gsim::Application app("A");
  gsim::Control* host = app.main_window().root().NewChild("M", uia::ControlType::kMenuItem);
  host->SetPopup(std::make_unique<gsim::Control>("P", uia::ControlType::kMenu));
  app.main_window().root().PropagateContext(&app.main_window(), &app);
  auto* ec = uia::PatternCast<uia::ExpandCollapsePattern>(*host);
  ASSERT_NE(ec, nullptr);
  EXPECT_EQ(ec->State(), uia::ExpandCollapseState::kCollapsed);
  ASSERT_TRUE(ec->Expand().ok());
  EXPECT_EQ(ec->State(), uia::ExpandCollapseState::kExpanded);
  ASSERT_TRUE(ec->Collapse().ok());
  EXPECT_EQ(ec->State(), uia::ExpandCollapseState::kCollapsed);
}

TEST(PatternTest, ValueAdapterOnEdit) {
  gsim::Application app("A");
  gsim::Control* e = app.main_window().root().NewChild("E", uia::ControlType::kEdit);
  app.main_window().root().PropagateContext(&app.main_window(), &app);
  auto* value = uia::PatternCast<uia::ValuePattern>(*e);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->GetValue(), "");
  ASSERT_TRUE(value->SetValue("42").ok());
  EXPECT_EQ(value->GetValue(), "42");
}

TEST(PatternTest, DisabledEditRejectsSetValue) {
  gsim::Application app("A");
  gsim::Control* e = app.main_window().root().NewChild("E", uia::ControlType::kEdit);
  e->SetEnabled(false);
  app.main_window().root().PropagateContext(&app.main_window(), &app);
  auto* value = uia::PatternCast<uia::ValuePattern>(*e);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->SetValue("x").code(), support::StatusCode::kFailedPrecondition);
}

}  // namespace
