#include <gtest/gtest.h>

#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/dmi/interaction.h"
#include "src/gui/screen.h"
#include "src/uia/tree.h"

namespace {

// Label of a control by true name (refreshes the screen first).
std::string LabelOf(gsim::ScreenView& screen, const std::string& name) {
  screen.Refresh();
  const auto labeled = screen.labeled();
  for (size_t i = 0; i < labeled.size(); ++i) {
    if (labeled[i].control->TrueName() == name) {
      return gsim::IndexToLabel(i);
    }
  }
  return "";
}

class WordInteraction : public ::testing::Test {
 protected:
  WordInteraction() : screen_(app_), ix_(app_, screen_) { screen_.Refresh(); }
  apps::WordSim app_;
  gsim::ScreenView screen_;
  dmi::InteractionInterfaces ix_;
};

TEST_F(WordInteraction, SelectLinesMatchesParagraphUnits) {
  // In WordSim one paragraph renders as one line, so select_lines and
  // select_paragraphs agree (documented in word_sim.cc).
  auto lines = ix_.SelectLines(LabelOf(screen_, "Document"), 2, 4);
  ASSERT_TRUE(lines.ok()) << lines.status().ToString();
  EXPECT_EQ(app_.selection_start(), 2);
  EXPECT_EQ(app_.selection_end(), 4);
  EXPECT_NE(lines->selected_text.find("Paragraph 3"), std::string::npos);
}

TEST_F(WordInteraction, SelectLinesRejectsBadRange) {
  auto lines = ix_.SelectLines(LabelOf(screen_, "Document"), 10, 5);
  EXPECT_EQ(lines.status().code(), support::StatusCode::kInvalidArgument);
  auto lines2 = ix_.SelectLines(LabelOf(screen_, "Document"), 0, 5000);
  EXPECT_FALSE(lines2.ok());
}

TEST_F(WordInteraction, SetExpandedOpensAndClosesMenus) {
  const std::string label = LabelOf(screen_, "Bullets");
  ASSERT_FALSE(label.empty());
  ASSERT_TRUE(ix_.SetExpanded(label, true).ok());
  gsim::Control* host = static_cast<gsim::Control*>(
      uia::FindByName(app_.main_window().root(), "Bullets"));
  EXPECT_TRUE(host->popup_open());
  // Refreshing reassigned labels; re-resolve before collapsing.
  ASSERT_TRUE(ix_.SetExpanded(LabelOf(screen_, "Bullets"), false).ok());
  EXPECT_FALSE(host->popup_open());
}

TEST_F(WordInteraction, SetExpandedRejectsNonExpandable) {
  const std::string label = LabelOf(screen_, "Bold");
  EXPECT_EQ(ix_.SetExpanded(label, true).code(),
            support::StatusCode::kFailedPrecondition);
}

TEST_F(WordInteraction, UnknownLabelIsStructuredNotFound) {
  EXPECT_EQ(ix_.SetToggleState("ZZZZ", true).code(), support::StatusCode::kNotFound);
  EXPECT_EQ(ix_.SetTexts("ZZZZ", "x").code(), support::StatusCode::kNotFound);
  EXPECT_EQ(ix_.GetTextsActive("ZZZZ").status().code(), support::StatusCode::kNotFound);
  EXPECT_EQ(ix_.SelectControls({"ZZZZ"}).code(), support::StatusCode::kNotFound);
}

class ExcelInteraction : public ::testing::Test {
 protected:
  ExcelInteraction() : screen_(app_), ix_(app_, screen_) { screen_.Refresh(); }
  apps::ExcelSim app_;
  gsim::ScreenView screen_;
  dmi::InteractionInterfaces ix_;
};

TEST_F(ExcelInteraction, SetTextsOnNameBoxIsDeclarative) {
  // set_texts needs no focus dance; value lands directly.
  const std::string label = LabelOf(screen_, "Name Box");
  ASSERT_TRUE(ix_.SetTexts(label, "D9").ok());
  EXPECT_EQ(app_.name_box()->text_value(), "D9");
  // Idempotent on the same target state.
  ASSERT_TRUE(ix_.SetTexts(LabelOf(screen_, "Name Box"), "D9").ok());
  // The Name Box still requires ENTER to commit the jump (app semantics).
  EXPECT_EQ(app_.active_row(), 0);
}

TEST_F(ExcelInteraction, SetTextsRejectsNonValueControls) {
  const std::string label = LabelOf(screen_, "Sheet Grid");
  EXPECT_EQ(ix_.SetTexts(label, "x").code(), support::StatusCode::kFailedPrecondition);
}

TEST_F(ExcelInteraction, GetTextsActiveValueFallbackOnEdit) {
  // Edits have no TextPattern; get_texts falls back to ValuePattern (§3.5).
  app_.name_box()->set_text_value("B2");
  auto text = ix_.GetTextsActive(LabelOf(screen_, "Name Box"));
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "B2");
}

TEST_F(ExcelInteraction, SelectionPatternReportsGridSelection) {
  ASSERT_TRUE(app_.Click(*app_.CellControl(2, 1)).ok());
  auto* sel_item = uia::PatternCast<uia::SelectionItemPattern>(*app_.CellControl(4, 3));
  ASSERT_NE(sel_item, nullptr);
  ASSERT_TRUE(sel_item->AddToSelection().ok());

  auto* selection = uia::PatternCast<uia::SelectionPattern>(*app_.grid_control());
  ASSERT_NE(selection, nullptr);
  EXPECT_TRUE(selection->CanSelectMultiple());
  std::vector<uia::Element*> selected = selection->GetSelection();
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0]->Name(), "B3");
  EXPECT_EQ(selected[1]->Name(), "D5");
}

TEST_F(ExcelInteraction, TabStripSelectionIsExclusive) {
  gsim::Control* tabs = static_cast<gsim::Control*>(
      uia::FindByName(app_.main_window().root(), "Ribbon Tabs"));
  ASSERT_NE(tabs, nullptr);
  auto* selection = uia::PatternCast<uia::SelectionPattern>(*tabs);
  ASSERT_NE(selection, nullptr);
  EXPECT_FALSE(selection->CanSelectMultiple());
  std::vector<uia::Element*> selected = selection->GetSelection();
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0]->Name(), "Home");
}

TEST_F(ExcelInteraction, PassiveRespectsItemLimit) {
  dmi::InteractionConfig config;
  config.passive_item_limit = 3;
  dmi::InteractionInterfaces limited(app_, screen_, config);
  screen_.Refresh();
  const std::string payload = limited.GetTextsPassive();
  // Exactly 3 item lines plus (possibly) the empty-coalescing summary.
  int item_lines = 0;
  for (size_t pos = 0; pos < payload.size();) {
    size_t nl = payload.find('\n', pos);
    std::string line = payload.substr(pos, nl - pos);
    if (line.find('=') != std::string::npos) {
      ++item_lines;
    }
    pos = nl + 1;
  }
  EXPECT_EQ(item_lines, 3);
}

// ----- screen rendering edges -----------------------------------------------------

TEST(ScreenRenderTest, ListingTruncatesAtMaxEntries) {
  apps::ExcelSim app;
  gsim::ScreenView screen(app);
  screen.Refresh();
  const std::string listing = screen.RenderListing(5);
  EXPECT_NE(listing.find("more controls"), std::string::npos);
  int lines = 0;
  for (char ch : listing) {
    lines += ch == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 6);  // 5 entries + the truncation marker
}

TEST(ScreenRenderTest, WindowDismissButtonLookup) {
  apps::WordSim app;
  gsim::Window* dialog = app.FindDialog("symbol_dialog");
  ASSERT_NE(dialog, nullptr);
  // Symbol dialog has OK and Cancel, no plain Close: dispose picks OK.
  EXPECT_EQ(dialog->FindButton(gsim::CloseDisposition::kDismiss), nullptr);
  ASSERT_NE(dialog->FindDisposeButton(), nullptr);
  EXPECT_EQ(dialog->FindDisposeButton()->TrueName(), "OK");
}


// ----- RangeValuePattern / set_range_value ------------------------------------------

TEST(RangeValueTest, SliderAcceptsDeclarativeValue) {
  apps::PpointSim app;
  gsim::ScreenView screen(app);
  dmi::InteractionInterfaces ix(app, screen);
  // The Transparency slider lives in the Format Background advanced pane;
  // open the pane imperatively for this unit test.
  gsim::Control* design = static_cast<gsim::Control*>(
      uia::FindByName(app.main_window().root(), "Design"));
  ASSERT_TRUE(app.Click(*design).ok());
  gsim::Control* fmt_bg = static_cast<gsim::Control*>(
      uia::FindByName(app.main_window().root(), "Format Background"));
  ASSERT_TRUE(app.Click(*fmt_bg).ok());
  gsim::Control* more = static_cast<gsim::Control*>(
      uia::FindByName(app.main_window().root(), "More Fill Options"));
  ASSERT_TRUE(app.Click(*more).ok());
  screen.Refresh();
  std::string label;
  for (size_t i = 0; i < screen.labeled().size(); ++i) {
    if (screen.labeled()[i].control->TrueName() == "Transparency") {
      label = gsim::IndexToLabel(i);
    }
  }
  ASSERT_FALSE(label.empty());
  ASSERT_TRUE(ix.SetRangeValue(label, 40.0).ok());
  gsim::Control* slider = static_cast<gsim::Control*>(
      uia::FindByName(app.main_window().root(), "Transparency"));
  EXPECT_DOUBLE_EQ(slider->range_value(), 40.0);
  // Out-of-range values produce a structured error, not a clamp.
  screen.Refresh();
  for (size_t i = 0; i < screen.labeled().size(); ++i) {
    if (screen.labeled()[i].control->TrueName() == "Transparency") {
      label = gsim::IndexToLabel(i);
    }
  }
  EXPECT_EQ(ix.SetRangeValue(label, 250.0).code(), support::StatusCode::kInvalidArgument);
}

TEST(RangeValueTest, NonRangeControlRejected) {
  apps::WordSim app;
  gsim::ScreenView screen(app);
  dmi::InteractionInterfaces ix(app, screen);
  screen.Refresh();
  std::string label;
  for (size_t i = 0; i < screen.labeled().size(); ++i) {
    if (screen.labeled()[i].control->TrueName() == "Bold") {
      label = gsim::IndexToLabel(i);
    }
  }
  EXPECT_EQ(ix.SetRangeValue(label, 10).code(), support::StatusCode::kFailedPrecondition);
}

TEST(RangeValueTest, PatternBoundsAndDisabled) {
  apps::WordSim app;
  gsim::Control* spinner = static_cast<gsim::Control*>(
      uia::FindByName(app.main_window().root(), "Indent Left"));
  // The spinner lives on the Layout tab; it exists statically regardless.
  if (spinner == nullptr) {
    app.main_window().root().WalkStatic([&](gsim::Control& c) {
      if (spinner == nullptr && c.TrueName() == "Indent Left") {
        spinner = &c;
      }
    });
  }
  ASSERT_NE(spinner, nullptr);
  auto* range = uia::PatternCast<uia::RangeValuePattern>(*spinner);
  ASSERT_NE(range, nullptr);
  EXPECT_DOUBLE_EQ(range->Minimum(), 0.0);
  EXPECT_DOUBLE_EQ(range->Maximum(), 100.0);
  ASSERT_TRUE(range->SetValue(12.5).ok());
  EXPECT_DOUBLE_EQ(range->Value(), 12.5);
  spinner->SetEnabled(false);
  EXPECT_EQ(range->SetValue(1.0).code(), support::StatusCode::kFailedPrecondition);
}

}  // namespace
