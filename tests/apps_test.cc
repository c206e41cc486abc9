#include <gtest/gtest.h>

#include "src/apps/excel_sim.h"
#include "src/apps/office_common.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/uia/tree.h"

#include <cstdlib>

namespace {

// Counts the controls of the main window's and the named dialogs' static trees
// (popups included even when closed) — the modeled node universe the paper
// reports (>4K per app, §5.2).
template <typename App>
size_t AppControlCount(App& app, const std::vector<std::string>& dialog_ids) {
  std::vector<gsim::Window*> dialogs;
  for (const auto& id : dialog_ids) {
    gsim::Window* d = app.FindDialog(id);
    if (d != nullptr) {
      dialogs.push_back(d);
    }
  }
  size_t n = 0;
  app.main_window().root().WalkStatic([&n](gsim::Control&) { ++n; });
  for (gsim::Window* d : dialogs) {
    d->root().WalkStatic([&n](gsim::Control&) { ++n; });
  }
  return n;
}

// ----- scale ---------------------------------------------------------------------

TEST(WordSimTest, ExceedsFourThousandControls) {
  apps::WordSim app;
  size_t n = AppControlCount(app, {"font_dialog", "text_effects_dialog", "find_replace_dialog",
                                   "insert_table_dialog", "symbol_dialog", "more_colors_dialog",
                                   "paragraph_dialog", "page_setup_dialog", "page_borders_dialog",
                                   "chart_dialog", "smartart_dialog", "watermark_dialog"});
  EXPECT_GT(n, 4000u) << "WordSim too small: " << n;
}

TEST(ExcelSimTest, ExceedsFourThousandControls) {
  apps::ExcelSim app;
  size_t n = AppControlCount(app, {"sort_dialog", "more_colors_dialog", "cf_new_rule_dialog"});
  EXPECT_GT(n, 4000u) << "ExcelSim too small: " << n;
}

TEST(PpointSimTest, ExceedsFourThousandControls) {
  apps::PpointSim app;
  size_t n = AppControlCount(app, {"symbol_dialog", "more_colors_dialog", "slide_size_dialog",
                                   "header_footer_dialog", "smartart_dialog", "chart_dialog"});
  EXPECT_GT(n, 4000u) << "PpointSim too small: " << n;
}

// ----- shared palette / path-dependent semantics (Word) ---------------------------

class WordFixture : public ::testing::Test {
 protected:
  apps::WordSim app_;

  gsim::Control* Find(const std::string& name) {
    return static_cast<gsim::Control*>(uia::FindByName(app_.main_window().root(), name));
  }

  // Clicks through: host (e.g. "Font Color") -> palette cell `color`.
  void PickColor(const std::string& host_name, const std::string& color) {
    gsim::Control* host = Find(host_name);
    ASSERT_NE(host, nullptr) << host_name;
    ASSERT_TRUE(app_.Click(*host).ok());
    gsim::Control* cell = Find(color);
    ASSERT_NE(cell, nullptr) << color;
    ASSERT_TRUE(app_.Click(*cell).ok());
  }
};

TEST_F(WordFixture, FontColorPathSetsFontColor) {
  app_.SetSelection(0, 2);
  PickColor("Font Color", "Blue");
  EXPECT_EQ(app_.paragraphs()[0].fmt.color, "Blue");
  EXPECT_EQ(app_.paragraphs()[2].fmt.color, "Blue");
  EXPECT_EQ(app_.paragraphs()[3].fmt.color, "Black");
  EXPECT_EQ(app_.paragraphs()[0].fmt.underline_color, "Black");  // untouched
}

TEST_F(WordFixture, UnderlineColorPathSetsUnderlineColor) {
  app_.SetSelection(1, 1);
  // Underline Color lives inside the Underline split-button menu.
  gsim::Control* underline = Find("Underline");
  ASSERT_NE(underline, nullptr);
  ASSERT_TRUE(app_.Click(*underline).ok());
  PickColor("Underline Color", "Standard Red");
  EXPECT_EQ(app_.paragraphs()[1].fmt.underline_color, "Standard Red");
  EXPECT_TRUE(app_.paragraphs()[1].fmt.underline);
  EXPECT_EQ(app_.paragraphs()[1].fmt.color, "Black");  // same palette, other path
}

TEST_F(WordFixture, PageColorPathSetsPageColor) {
  // Page Color is on the Design tab; same shared palette again.
  gsim::Control* design = Find("Design");
  ASSERT_NE(design, nullptr);
  ASSERT_TRUE(app_.Click(*design).ok());
  PickColor("Page Color", "Gold");
  EXPECT_EQ(app_.page_color(), "Gold");
}

TEST_F(WordFixture, NoSelectionGivesStructuredError) {
  gsim::Control* font_color = Find("Font Color");
  ASSERT_TRUE(app_.Click(*font_color).ok());
  gsim::Control* blue = Find("Blue");
  support::Status s = app_.Click(*blue);
  EXPECT_EQ(s.code(), support::StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("selected"), std::string::npos);
}

TEST_F(WordFixture, BoldToggleAppliesToSelection) {
  app_.SetSelection(0, 0);
  gsim::Control* bold = Find("Bold");
  ASSERT_TRUE(app_.Click(*bold).ok());
  EXPECT_TRUE(app_.paragraphs()[0].fmt.bold);
  ASSERT_TRUE(app_.Click(*bold).ok());
  EXPECT_FALSE(app_.paragraphs()[0].fmt.bold);
}

TEST_F(WordFixture, TableGridInsert) {
  gsim::Control* insert = Find("Insert");
  ASSERT_TRUE(app_.Click(*insert).ok());
  gsim::Control* table = Find("Table");
  ASSERT_TRUE(app_.Click(*table).ok());
  gsim::Control* cell = Find("Table 3 x 4");
  ASSERT_NE(cell, nullptr);
  ASSERT_TRUE(app_.Click(*cell).ok());
  EXPECT_EQ(app_.table_rows(), 3);
  EXPECT_EQ(app_.table_cols(), 4);
}

TEST_F(WordFixture, FindReplaceAll) {
  gsim::Control* replace = Find("Replace");
  ASSERT_NE(replace, nullptr);
  ASSERT_TRUE(app_.Click(*replace).ok());
  ASSERT_EQ(app_.TopWindow()->title(), "Find and Replace");
  gsim::Control* find_edit =
      static_cast<gsim::Control*>(uia::FindByName(app_.TopWindow()->root(), "Find what"));
  ASSERT_NE(find_edit, nullptr);
  ASSERT_TRUE(app_.Click(*find_edit).ok());
  ASSERT_TRUE(app_.TypeText("revenue").ok());
  gsim::Control* repl_edit =
      static_cast<gsim::Control*>(uia::FindByName(app_.TopWindow()->root(), "Replace with"));
  ASSERT_TRUE(app_.Click(*repl_edit).ok());
  ASSERT_TRUE(app_.TypeText("income").ok());
  gsim::Control* all =
      static_cast<gsim::Control*>(uia::FindByName(app_.TopWindow()->root(), "Replace All"));
  ASSERT_TRUE(app_.Click(*all).ok());
  EXPECT_GT(app_.replace_count(), 0);
  bool any = false;
  for (const auto& p : app_.paragraphs()) {
    EXPECT_EQ(p.text.find("revenue"), std::string::npos);
    any |= p.text.find("income") != std::string::npos;
  }
  EXPECT_TRUE(any);
}

TEST_F(WordFixture, FindReplaceSubscriptGotcha) {
  gsim::Control* replace = Find("Replace");
  ASSERT_TRUE(app_.Click(*replace).ok());
  gsim::Control* find_edit =
      static_cast<gsim::Control*>(uia::FindByName(app_.TopWindow()->root(), "Find what"));
  ASSERT_TRUE(app_.Click(*find_edit).ok());
  ASSERT_TRUE(app_.TypeText("milestone").ok());
  gsim::Control* more =
      static_cast<gsim::Control*>(uia::FindByName(app_.TopWindow()->root(), "More Options"));
  ASSERT_TRUE(app_.Click(*more).ok());
  gsim::Control* sub =
      static_cast<gsim::Control*>(uia::FindByName(app_.TopWindow()->root(), "Subscript"));
  ASSERT_NE(sub, nullptr);
  ASSERT_TRUE(app_.Click(*sub).ok());
  gsim::Control* all =
      static_cast<gsim::Control*>(uia::FindByName(app_.TopWindow()->root(), "Replace All"));
  ASSERT_TRUE(app_.Click(*all).ok());
  // The subscript criterion applied to matched paragraphs, not the selection.
  bool any_subscript = false;
  for (const auto& p : app_.paragraphs()) {
    any_subscript |= p.fmt.subscript;
  }
  EXPECT_TRUE(any_subscript);
}

TEST_F(WordFixture, TextEffectsPaneCycle) {
  // Font dialog -> Text Effects -> Outline Options -> Back (cycle).
  gsim::Control* launcher = Find("Font Settings");
  ASSERT_TRUE(app_.Click(*launcher).ok());
  gsim::Control* te =
      static_cast<gsim::Control*>(uia::FindByName(app_.TopWindow()->root(), "Text Effects..."));
  ASSERT_TRUE(app_.Click(*te).ok());
  ASSERT_EQ(app_.TopWindow()->title(), "Format Text Effects");
  gsim::Control* fwd = static_cast<gsim::Control*>(
      uia::FindByName(app_.TopWindow()->root(), "Outline Options"));
  ASSERT_NE(fwd, nullptr);
  gsim::Control* back_target = static_cast<gsim::Control*>(
      uia::FindByName(app_.TopWindow()->root(), "No Text Fill"));
  ASSERT_FALSE(back_target->IsOffscreen());
  ASSERT_TRUE(app_.Click(*fwd).ok());
  EXPECT_TRUE(back_target->IsOffscreen());  // pane switched away
  gsim::Control* back = static_cast<gsim::Control*>(
      uia::FindByName(app_.TopWindow()->root(), "Back to Fill Options"));
  ASSERT_NE(back, nullptr);
  ASSERT_TRUE(app_.Click(*back).ok());
  EXPECT_FALSE(back_target->IsOffscreen());  // cycle closed
}

TEST_F(WordFixture, DocumentTextPattern) {
  auto* text = uia::PatternCast<uia::TextPattern>(*app_.document_control());
  ASSERT_NE(text, nullptr);
  EXPECT_EQ(text->UnitCount(uia::TextUnit::kParagraph), 50);
  EXPECT_NE(text->GetUnitText(uia::TextUnit::kLine, 0).find("Paragraph 1"), std::string::npos);
  ASSERT_TRUE(text->SelectRange(uia::TextUnit::kParagraph, 2, 4).ok());
  EXPECT_EQ(app_.selection_start(), 2);
  EXPECT_EQ(app_.selection_end(), 4);
  EXPECT_FALSE(text->SelectRange(uia::TextUnit::kParagraph, 48, 200).ok());
}

TEST_F(WordFixture, DocumentScrollPattern) {
  auto* scroll = uia::PatternCast<uia::ScrollPattern>(*app_.document_control());
  ASSERT_NE(scroll, nullptr);
  EXPECT_FALSE(scroll->HorizontallyScrollable());
  ASSERT_TRUE(scroll->SetScrollPercent(uia::ScrollPattern::kNoScroll, 80.0).ok());
  EXPECT_DOUBLE_EQ(app_.scroll_percent(), 80.0);
  // Imperative increments accumulate.
  ASSERT_TRUE(scroll->ScrollIncrement(0.0, 10.0).ok());
  EXPECT_DOUBLE_EQ(app_.scroll_percent(), 90.0);
  ASSERT_TRUE(scroll->ScrollIncrement(0.0, 50.0).ok());
  EXPECT_DOUBLE_EQ(app_.scroll_percent(), 100.0);  // clamped
}

// ----- Excel ------------------------------------------------------------------------

class ExcelFixture : public ::testing::Test {
 protected:
  apps::ExcelSim app_;

  gsim::Control* Find(const std::string& name) {
    return static_cast<gsim::Control*>(uia::FindByName(app_.main_window().root(), name));
  }
};

TEST_F(ExcelFixture, RefParsing) {
  int r, c;
  ASSERT_TRUE(apps::ExcelSim::ParseRef("A1", &r, &c));
  EXPECT_EQ(r, 0);
  EXPECT_EQ(c, 0);
  ASSERT_TRUE(apps::ExcelSim::ParseRef("C7", &r, &c));
  EXPECT_EQ(r, 6);
  EXPECT_EQ(c, 2);
  EXPECT_FALSE(apps::ExcelSim::ParseRef("7C", &r, &c));
  EXPECT_FALSE(apps::ExcelSim::ParseRef("", &r, &c));
  EXPECT_FALSE(apps::ExcelSim::ParseRef("A0", &r, &c));
  EXPECT_FALSE(apps::ExcelSim::ParseRef("ZZ999", &r, &c));
  EXPECT_EQ(apps::ExcelSim::MakeRef(6, 2), "C7");
}

TEST_F(ExcelFixture, SeededDataPresent) {
  ASSERT_NE(app_.find_cell(0, 0), nullptr);
  EXPECT_EQ(app_.find_cell(0, 0)->value, "Region");
  EXPECT_TRUE(app_.find_cell(0, 0)->bold);
  EXPECT_NE(app_.find_cell(1, 1), nullptr);
}

TEST_F(ExcelFixture, CellClickSelectsAndUpdatesNameBox) {
  gsim::Control* b2 = app_.CellControl(1, 1);
  ASSERT_NE(b2, nullptr);
  ASSERT_TRUE(app_.Click(*b2).ok());
  EXPECT_EQ(app_.active_row(), 1);
  EXPECT_EQ(app_.active_col(), 1);
  EXPECT_EQ(app_.name_box()->text_value(), "B2");
}

TEST_F(ExcelFixture, FormulaBarCommitOnEnter) {
  ASSERT_TRUE(app_.Click(*app_.CellControl(20, 4)).ok());
  ASSERT_TRUE(app_.Click(*app_.formula_bar()).ok());
  ASSERT_TRUE(app_.TypeText("hello").ok());
  // Not committed until ENTER.
  EXPECT_EQ(app_.find_cell(20, 4), nullptr);
  ASSERT_TRUE(app_.PressKey("ENTER").ok());
  ASSERT_NE(app_.find_cell(20, 4), nullptr);
  EXPECT_EQ(app_.find_cell(20, 4)->value, "hello");
}

TEST_F(ExcelFixture, NameBoxJumpRequiresEnter) {
  ASSERT_TRUE(app_.Click(*app_.name_box()).ok());
  ASSERT_TRUE(app_.TypeText("C7").ok());
  EXPECT_EQ(app_.active_row(), 0);  // no jump yet: ENTER missing
  ASSERT_TRUE(app_.PressKey("ENTER").ok());
  EXPECT_EQ(app_.active_row(), 6);
  EXPECT_EQ(app_.active_col(), 2);
}

TEST_F(ExcelFixture, NameBoxRejectsGarbage) {
  ASSERT_TRUE(app_.Click(*app_.name_box()).ok());
  ASSERT_TRUE(app_.TypeText("not-a-ref").ok());
  EXPECT_EQ(app_.PressKey("ENTER").code(), support::StatusCode::kInvalidArgument);
}

TEST_F(ExcelFixture, FormulaEvaluation) {
  app_.SetCellValue(30, 0, "10");
  app_.SetCellValue(31, 0, "20");
  app_.SetCellValue(32, 0, "30");
  app_.SetCellValue(33, 0, "=SUM(A31:A33)");
  EXPECT_EQ(app_.find_cell(33, 0)->value, "60");
  app_.SetCellValue(34, 0, "=AVERAGE(A31:A33)");
  EXPECT_EQ(app_.find_cell(34, 0)->value, "20");
  app_.SetCellValue(35, 0, "=MAX(A31:A33)");
  EXPECT_EQ(app_.find_cell(35, 0)->value, "30");
  app_.SetCellValue(36, 0, "=COUNT(A31:A35)");
  EXPECT_EQ(app_.find_cell(36, 0)->value, "5");
}

TEST_F(ExcelFixture, ConditionalFormattingAppliesToBlanks) {
  // Select a region that includes blank cells, apply "Greater Than 0".
  ASSERT_TRUE(app_.Click(*app_.CellControl(1, 1)).ok());
  auto* sel = uia::PatternCast<uia::SelectionItemPattern>(*app_.CellControl(5, 3));
  ASSERT_NE(sel, nullptr);
  ASSERT_TRUE(sel->AddToSelection().ok());
  gsim::Control* home_cf = Find("Conditional Formatting");
  ASSERT_NE(home_cf, nullptr);
  ASSERT_TRUE(app_.Click(*home_cf).ok());
  gsim::Control* hcr = Find("Highlight Cells Rules");
  ASSERT_TRUE(app_.Click(*hcr).ok());
  gsim::Control* gt = Find("Greater Than...");
  ASSERT_TRUE(app_.Click(*gt).ok());
  ASSERT_EQ(app_.TopWindow()->title(), "Greater Than");
  gsim::Control* value_edit = static_cast<gsim::Control*>(uia::FindAll(
      app_.TopWindow()->root(),
      [](uia::Element& e) { return e.AutomationId() == "cf_value"; })[0]);
  ASSERT_TRUE(app_.Click(*value_edit).ok());
  ASSERT_TRUE(app_.TypeText("100").ok());
  gsim::Control* ok =
      static_cast<gsim::Control*>(uia::FindByName(app_.TopWindow()->root(), "OK"));
  ASSERT_TRUE(app_.Click(*ok).ok());
  ASSERT_EQ(app_.cf_rules().size(), 1u);
  const apps::CfRule& rule = app_.cf_rules()[0];
  EXPECT_EQ(rule.kind, "GreaterThan");
  EXPECT_DOUBLE_EQ(rule.threshold, 100.0);
  // The rule region is the full bounding box: includes the blank D2 cell.
  EXPECT_EQ(rule.row0, 1);
  EXPECT_EQ(rule.col0, 1);
  EXPECT_EQ(rule.row1, 5);
  EXPECT_EQ(rule.col1, 3);
}

TEST_F(ExcelFixture, SortAscendingByActiveColumn) {
  ASSERT_TRUE(app_.Click(*app_.CellControl(1, 1)).ok());  // column B (Q1)
  gsim::Control* sort_menu = Find("Sort and Filter");
  ASSERT_TRUE(app_.Click(*sort_menu).ok());
  gsim::Control* asc = Find("Sort A to Z");
  ASSERT_TRUE(app_.Click(*asc).ok());
  EXPECT_TRUE(app_.sorted_ascending());
  double prev = -1e18;
  for (int r = 1; r <= 12; ++r) {
    double v = std::atof(app_.find_cell(r, 1)->value.c_str());
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST_F(ExcelFixture, ViewportFollowsScroll) {
  EXPECT_FALSE(app_.CellControl(0, 0)->IsOffscreen());
  EXPECT_TRUE(app_.CellControl(100, 0)->IsOffscreen());
  auto* scroll = uia::PatternCast<uia::ScrollPattern>(*app_.grid_control());
  ASSERT_NE(scroll, nullptr);
  ASSERT_TRUE(scroll->SetScrollPercent(uia::ScrollPattern::kNoScroll, 80.0).ok());
  EXPECT_TRUE(app_.CellControl(0, 0)->IsOffscreen());
  EXPECT_FALSE(app_.CellControl(105, 0)->IsOffscreen());
}

TEST_F(ExcelFixture, GridPatternGeometry) {
  auto* grid = uia::PatternCast<uia::GridPattern>(*app_.grid_control());
  ASSERT_NE(grid, nullptr);
  EXPECT_EQ(grid->RowCount(), apps::ExcelSim::kRows);
  EXPECT_EQ(grid->ColumnCount(), apps::ExcelSim::kCols);
  EXPECT_EQ(grid->GetItem(6, 2)->Name(), "C7");
  EXPECT_EQ(grid->GetItem(-1, 0), nullptr);
}

TEST_F(ExcelFixture, FillVsFontColorPaths) {
  ASSERT_TRUE(app_.Click(*app_.CellControl(2, 2)).ok());
  gsim::Control* fill = Find("Fill Color");
  ASSERT_TRUE(app_.Click(*fill).ok());
  gsim::Control* gold = Find("Gold");
  ASSERT_TRUE(app_.Click(*gold).ok());
  EXPECT_EQ(app_.find_cell(2, 2)->fill_color, "Gold");
  EXPECT_EQ(app_.find_cell(2, 2)->font_color, "Black");
}

// ----- PowerPoint -------------------------------------------------------------------

class PpointFixture : public ::testing::Test {
 protected:
  apps::PpointSim app_;

  gsim::Control* Find(const std::string& name) {
    return static_cast<gsim::Control*>(uia::FindByName(app_.main_window().root(), name));
  }
};

TEST_F(PpointFixture, Task1BackgroundBlueAllSlides) {
  // The paper's Table 1 Task 1, done imperatively: Design -> Format
  // Background -> Solid fill -> Fill Color -> Blue -> Apply to All.
  ASSERT_TRUE(app_.Click(*Find("Design")).ok());
  ASSERT_TRUE(app_.Click(*Find("Format Background")).ok());
  ASSERT_TRUE(app_.Click(*Find("Solid fill")).ok());
  ASSERT_TRUE(app_.Click(*Find("Fill Color")).ok());
  ASSERT_TRUE(app_.Click(*Find("Blue")).ok());
  ASSERT_TRUE(app_.Click(*Find("Apply to All")).ok());
  for (const auto& slide : app_.slides()) {
    EXPECT_EQ(slide.background_color, "Blue");
    EXPECT_TRUE(slide.background_solid);
  }
}

TEST_F(PpointFixture, BackgroundPanePersistsAcrossClicks) {
  ASSERT_TRUE(app_.Click(*Find("Design")).ok());
  ASSERT_TRUE(app_.Click(*Find("Format Background")).ok());
  gsim::Control* apply_all = Find("Apply to All");
  ASSERT_NE(apply_all, nullptr);
  // Picking a color (which closes the transient palette) keeps the pane open.
  ASSERT_TRUE(app_.Click(*Find("Fill Color")).ok());
  ASSERT_TRUE(app_.Click(*Find("Blue")).ok());
  EXPECT_TRUE(app_.IsAttached(*apply_all));
  // Close Pane dismisses it.
  ASSERT_TRUE(app_.Click(*Find("Close Pane")).ok());
  EXPECT_FALSE(app_.IsAttached(*apply_all));
}

TEST_F(PpointFixture, BackgroundPaneCycle) {
  ASSERT_TRUE(app_.Click(*Find("Design")).ok());
  ASSERT_TRUE(app_.Click(*Find("Format Background")).ok());
  gsim::Control* solid = Find("Solid fill");
  ASSERT_FALSE(solid->IsOffscreen());
  ASSERT_TRUE(app_.Click(*Find("More Fill Options")).ok());
  EXPECT_TRUE(solid->IsOffscreen());
  ASSERT_TRUE(app_.Click(*Find("Back to Fill Options")).ok());
  EXPECT_FALSE(solid->IsOffscreen());
}

TEST_F(PpointFixture, ThumbnailSwitchesSlide) {
  gsim::Control* t5 = Find("Slide 5");
  ASSERT_NE(t5, nullptr);
  ASSERT_TRUE(app_.Click(*t5).ok());
  EXPECT_EQ(app_.current_slide(), 4);
  // Canvas visibility follows.
  EXPECT_FALSE(Find("Slide 5 Canvas")->IsOffscreen());
  EXPECT_TRUE(Find("Slide 1 Canvas")->IsOffscreen());
}

TEST_F(PpointFixture, PictureFormatTabIsContextual) {
  EXPECT_TRUE(app_.picture_format_tab()->IsOffscreen());
  // Go to slide 3 and select its image.
  ASSERT_TRUE(app_.Click(*Find("Slide 3")).ok());
  gsim::Control* image = static_cast<gsim::Control*>(uia::FindAll(
      app_.main_window().root(), [](uia::Element& e) {
        return e.Type() == uia::ControlType::kImage && !e.IsOffscreen();
      })[0]);
  ASSERT_TRUE(app_.Click(*image).ok());
  EXPECT_FALSE(app_.picture_format_tab()->IsOffscreen());
  // Selecting a non-image shape hides it again.
  gsim::Control* title = static_cast<gsim::Control*>(
      uia::FindByName(app_.main_window().root(), "Title: Slide 3 Title"));
  ASSERT_NE(title, nullptr);
  ASSERT_TRUE(app_.Click(*title).ok());
  EXPECT_TRUE(app_.picture_format_tab()->IsOffscreen());
}

TEST_F(PpointFixture, SlideViewScroll) {
  auto* scroll = uia::PatternCast<uia::ScrollPattern>(*app_.slide_view_control());
  ASSERT_NE(scroll, nullptr);
  ASSERT_TRUE(scroll->SetScrollPercent(uia::ScrollPattern::kNoScroll, 80.0).ok());
  EXPECT_DOUBLE_EQ(app_.view_scroll_percent(), 80.0);
}

TEST_F(PpointFixture, TransitionApplyAndApplyAll) {
  ASSERT_TRUE(app_.Click(*Find("Transitions")).ok());
  ASSERT_TRUE(app_.Click(*Find("Transition Gallery")).ok());
  gsim::Control* t7 = Find("Transition 7");
  ASSERT_NE(t7, nullptr);
  ASSERT_TRUE(app_.Click(*t7).ok());
  EXPECT_EQ(app_.slides()[0].transition, "Transition 7");
  EXPECT_EQ(app_.slides()[1].transition, "None");
  ASSERT_TRUE(app_.Click(*Find("Apply To All Slides")).ok());
  EXPECT_EQ(app_.slides()[11].transition, "Transition 7");
}

TEST_F(PpointFixture, ThemeApply) {
  ASSERT_TRUE(app_.Click(*Find("Design")).ok());
  ASSERT_TRUE(app_.Click(*Find("Themes Gallery")).ok());
  gsim::Control* theme = Find("Theme 12");
  ASSERT_NE(theme, nullptr);
  ASSERT_TRUE(app_.Click(*theme).ok());
  EXPECT_EQ(app_.theme(), "Theme 12");
}

TEST_F(PpointFixture, PictureCommandNeedsSelection) {
  // Drive a pic.* command without any selected picture: structured error.
  ASSERT_TRUE(app_.Click(*Find("Slide 3")).ok());
  gsim::Control* image = static_cast<gsim::Control*>(uia::FindAll(
      app_.main_window().root(), [](uia::Element& e) {
        return e.Type() == uia::ControlType::kImage && !e.IsOffscreen();
      })[0]);
  ASSERT_TRUE(app_.Click(*image).ok());
  ASSERT_TRUE(app_.Click(*app_.picture_format_tab()).ok());
  ASSERT_TRUE(app_.Click(*Find("Corrections")).ok());
  gsim::Control* preset = Find("Correction Preset 3");
  ASSERT_NE(preset, nullptr);
  ASSERT_TRUE(app_.Click(*preset).ok());
  EXPECT_TRUE(app_.HasEffect("pic.correction:Correction Preset 3"));
}


// ----- broader semantic-command coverage -------------------------------------------

TEST_F(WordFixture, AlignmentAndLineSpacing) {
  app_.SetSelection(0, 1);
  gsim::Control* center = Find("Center");
  ASSERT_TRUE(app_.Click(*center).ok());
  EXPECT_EQ(app_.paragraphs()[0].alignment, "Center");
  EXPECT_EQ(app_.paragraphs()[2].alignment, "Left");
  gsim::Control* spacing = Find("Line and Paragraph Spacing");
  ASSERT_TRUE(app_.Click(*spacing).ok());
  gsim::Control* two = Find("2.0");
  ASSERT_NE(two, nullptr);
  ASSERT_TRUE(app_.Click(*two).ok());
  EXPECT_DOUBLE_EQ(app_.paragraphs()[1].line_spacing, 2.0);
}

TEST_F(WordFixture, FontFamilyAndSizeFromCombos) {
  app_.SetSelection(2, 2);
  gsim::Control* family = Find("Font Family");
  ASSERT_TRUE(app_.Click(*family).ok());
  gsim::Control* georgia = Find("Georgia");
  ASSERT_NE(georgia, nullptr);
  ASSERT_TRUE(app_.Click(*georgia).ok());
  EXPECT_EQ(app_.paragraphs()[2].fmt.font, "Georgia");
  gsim::Control* size = Find("Font Size");
  ASSERT_TRUE(app_.Click(*size).ok());
  gsim::Control* s24 = Find("24");
  ASSERT_NE(s24, nullptr);
  ASSERT_TRUE(app_.Click(*s24).ok());
  EXPECT_EQ(app_.paragraphs()[2].fmt.size, 24);
}

TEST_F(WordFixture, OrientationRoundTrip) {
  gsim::Control* layout = Find("Layout");
  ASSERT_TRUE(app_.Click(*layout).ok());
  gsim::Control* orient = Find("Orientation");
  ASSERT_TRUE(app_.Click(*orient).ok());
  ASSERT_TRUE(app_.Click(*Find("Landscape")).ok());
  EXPECT_EQ(app_.page_orientation(), "Landscape");
  ASSERT_TRUE(app_.Click(*orient).ok());
  ASSERT_TRUE(app_.Click(*Find("Portrait")).ok());
  EXPECT_EQ(app_.page_orientation(), "Portrait");
}

TEST_F(WordFixture, InsertTableDialogUsesTypedDimensions) {
  gsim::Control* insert = Find("Insert");
  ASSERT_TRUE(app_.Click(*insert).ok());
  gsim::Control* table = Find("Table");
  ASSERT_TRUE(app_.Click(*table).ok());
  gsim::Control* dlg = Find("Insert Table...");
  ASSERT_TRUE(app_.Click(*dlg).ok());
  ASSERT_EQ(app_.TopWindow()->title(), "Insert Table");
  gsim::Control* rows = static_cast<gsim::Control*>(
      uia::FindByName(app_.TopWindow()->root(), "Number of rows"));
  ASSERT_TRUE(app_.Click(*rows).ok());
  ASSERT_TRUE(app_.TypeText("6").ok());
  gsim::Control* cols = static_cast<gsim::Control*>(
      uia::FindByName(app_.TopWindow()->root(), "Number of columns"));
  ASSERT_TRUE(app_.Click(*cols).ok());
  ASSERT_TRUE(app_.TypeText("2").ok());
  gsim::Control* ok = static_cast<gsim::Control*>(
      uia::FindByName(app_.TopWindow()->root(), "OK"));
  ASSERT_TRUE(app_.Click(*ok).ok());
  EXPECT_EQ(app_.table_rows(), 6);
  EXPECT_EQ(app_.table_cols(), 2);
}

TEST_F(WordFixture, ClearFormattingResetsSelection) {
  app_.SetSelection(0, 0);
  ASSERT_TRUE(app_.Click(*Find("Bold")).ok());
  ASSERT_TRUE(app_.Click(*Find("Italic")).ok());
  EXPECT_TRUE(app_.paragraphs()[0].fmt.bold);
  ASSERT_TRUE(app_.Click(*Find("Clear All Formatting")).ok());
  EXPECT_FALSE(app_.paragraphs()[0].fmt.bold);
  EXPECT_FALSE(app_.paragraphs()[0].fmt.italic);
  EXPECT_EQ(app_.paragraphs()[0].fmt.color, "Black");
}

TEST_F(WordFixture, HighlightUsesOwnPaletteNotShared) {
  app_.SetSelection(3, 3);
  gsim::Control* highlight = Find("Text Highlight Color");
  ASSERT_TRUE(app_.Click(*highlight).ok());
  gsim::Control* yellow = Find("Yellow Highlight");
  ASSERT_NE(yellow, nullptr);
  ASSERT_TRUE(app_.Click(*yellow).ok());
  EXPECT_EQ(app_.paragraphs()[3].fmt.highlight, "Yellow Highlight");
  EXPECT_EQ(app_.paragraphs()[3].fmt.color, "Black");
}

TEST_F(ExcelFixture, AutoSumOverNumericRun) {
  // Seeded B2:B13 are numeric; put the cursor at B14 and AutoSum.
  app_.SetActiveCell(13, 1);
  gsim::Control* autosum = Find("AutoSum");
  ASSERT_TRUE(app_.Click(*autosum).ok());
  gsim::Control* sum = Find("Sum");
  ASSERT_NE(sum, nullptr);
  ASSERT_TRUE(app_.Click(*sum).ok());
  const apps::ExcelCell* cell = app_.find_cell(13, 1);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->formula, "=SUM(B2:B13)");
}

TEST_F(ExcelFixture, AutoSumWithoutNumbersAboveErrors) {
  app_.SetActiveCell(100, 8);  // empty region
  gsim::Control* autosum = Find("AutoSum");
  ASSERT_TRUE(app_.Click(*autosum).ok());
  gsim::Control* sum = Find("Sum");
  support::Status s = app_.Click(*sum);
  EXPECT_EQ(s.code(), support::StatusCode::kFailedPrecondition);
}

TEST_F(ExcelFixture, NumberFormatAppliesToSelection) {
  ASSERT_TRUE(app_.Click(*app_.CellControl(1, 1)).ok());
  auto* sel = uia::PatternCast<uia::SelectionItemPattern>(*app_.CellControl(3, 1));
  ASSERT_TRUE(sel->AddToSelection().ok());
  gsim::Control* numfmt = Find("Number Format");
  ASSERT_TRUE(app_.Click(*numfmt).ok());
  gsim::Control* currency = Find("Currency");
  ASSERT_TRUE(app_.Click(*currency).ok());
  EXPECT_EQ(app_.find_cell(2, 1)->number_format, "Currency");
  EXPECT_EQ(app_.find_cell(4, 1)->number_format, "General");
}

TEST_F(ExcelFixture, SortDescendingToo) {
  ASSERT_TRUE(app_.Click(*app_.CellControl(1, 1)).ok());
  gsim::Control* menu = Find("Sort and Filter");
  ASSERT_TRUE(app_.Click(*menu).ok());
  ASSERT_TRUE(app_.Click(*Find("Sort Z to A")).ok());
  double prev = 1e18;
  for (int r = 1; r <= 12; ++r) {
    double v = std::atof(app_.find_cell(r, 1)->value.c_str());
    EXPECT_LE(v, prev);
    prev = v;
  }
}

TEST_F(ExcelFixture, ClearAllRules) {
  // Apply a quick rule then clear every rule from the sheet.
  ASSERT_TRUE(app_.Click(*app_.CellControl(1, 1)).ok());
  gsim::Control* cf = Find("Conditional Formatting");
  ASSERT_TRUE(app_.Click(*cf).ok());
  gsim::Control* hcr = Find("Highlight Cells Rules");
  ASSERT_TRUE(app_.Click(*hcr).ok());
  ASSERT_TRUE(app_.Click(*Find("Greater Than...")).ok());
  gsim::Control* ok = static_cast<gsim::Control*>(
      uia::FindByName(app_.TopWindow()->root(), "OK"));
  ASSERT_TRUE(app_.Click(*ok).ok());
  ASSERT_EQ(app_.cf_rules().size(), 1u);
  ASSERT_TRUE(app_.Click(*cf).ok());
  gsim::Control* clear = Find("Clear Rules");
  ASSERT_TRUE(app_.Click(*clear).ok());
  ASSERT_TRUE(app_.Click(*Find("Clear Rules from Entire Sheet")).ok());
  EXPECT_TRUE(app_.cf_rules().empty());
}

TEST_F(PpointFixture, LayoutAppliesToCurrentSlideOnly) {
  ASSERT_TRUE(app_.Click(*Find("Slide 4")).ok());
  gsim::Control* layout = Find("Layout");
  ASSERT_TRUE(app_.Click(*layout).ok());
  ASSERT_TRUE(app_.Click(*Find("Layout Preset 7")).ok());
  EXPECT_EQ(app_.slides()[3].layout, "Layout Preset 7");
  EXPECT_EQ(app_.slides()[0].layout, "Title and Content");
}

TEST_F(PpointFixture, ShapeInsertLandsOnCurrentSlide) {
  ASSERT_TRUE(app_.Click(*Find("Slide 2")).ok());
  const size_t before = app_.slides()[1].shapes.size();
  gsim::Control* shapes = Find("Shapes");
  ASSERT_TRUE(app_.Click(*shapes).ok());
  ASSERT_TRUE(app_.Click(*Find("Shape 5")).ok());
  EXPECT_EQ(app_.slides()[1].shapes.size(), before + 1);
  EXPECT_TRUE(app_.HasEffect("shape.insert:Shape 5"));
}

TEST_F(PpointFixture, FontColorOnSelectedShapeViaPalette) {
  gsim::Control* title = static_cast<gsim::Control*>(
      uia::FindByName(app_.main_window().root(), "Title: Slide 1 Title"));
  ASSERT_NE(title, nullptr);
  ASSERT_TRUE(app_.Click(*title).ok());
  gsim::Control* font_color = Find("Font Color");
  ASSERT_TRUE(app_.Click(*font_color).ok());
  ASSERT_TRUE(app_.Click(*Find("Teal")).ok());
  EXPECT_EQ(app_.slides()[0].shapes[0].font_color, "Teal");
}

TEST_F(PpointFixture, BackgroundResetRestoresDefault) {
  ASSERT_TRUE(app_.Click(*Find("Design")).ok());
  ASSERT_TRUE(app_.Click(*Find("Format Background")).ok());
  ASSERT_TRUE(app_.Click(*Find("Solid fill")).ok());
  ASSERT_TRUE(app_.Click(*Find("Fill Color")).ok());
  ASSERT_TRUE(app_.Click(*Find("Green")).ok());
  EXPECT_EQ(app_.slides()[0].background_color, "Green");
  ASSERT_TRUE(app_.Click(*Find("Reset Background")).ok());
  EXPECT_EQ(app_.slides()[0].background_color, "White");
  EXPECT_FALSE(app_.slides()[0].background_solid);
}

}  // namespace
