#include "src/apps/excel_sim.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "src/support/strings.h"

namespace apps {
namespace {

// GridPattern over the ExcelSim cell controls.
class ExcelGridPattern : public uia::GridPattern {
 public:
  explicit ExcelGridPattern(ExcelSim* app) : app_(app) {}
  int RowCount() const override { return ExcelSim::kRows; }
  int ColumnCount() const override { return ExcelSim::kCols; }
  uia::Element* GetItem(int row, int column) const override {
    return app_->CellControl(row, column);
  }

 private:
  ExcelSim* app_;
};

bool IsNumeric(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return false;
  }
  if (out != nullptr) {
    *out = v;
  }
  return true;
}

std::string FormatNumber(double v) {
  if (v == static_cast<long long>(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return support::Format("%g", v);
}

}  // namespace

ExcelSim::ExcelSim(const OfficeScale& scale) : gsim::Application("ExcelSim") {
  BuildUi(scale);
  SeedData();
  UpdateViewport();
  FinalizeMainWindow();
}

bool ExcelSim::ParseRef(const std::string& ref, int* row, int* col) {
  if (ref.empty()) {
    return false;
  }
  size_t i = 0;
  int c = 0;
  while (i < ref.size() && std::isalpha(static_cast<unsigned char>(ref[i]))) {
    c = c * 26 + (std::toupper(static_cast<unsigned char>(ref[i])) - 'A' + 1);
    ++i;
  }
  if (i == 0 || i >= ref.size()) {
    return false;
  }
  int r = 0;
  for (; i < ref.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(ref[i]))) {
      return false;
    }
    r = r * 10 + (ref[i] - '0');
  }
  if (r < 1 || r > kRows || c < 1 || c > kCols) {
    return false;
  }
  *row = r - 1;
  *col = c - 1;
  return true;
}

std::string ExcelSim::MakeRef(int row, int col) {
  std::string letters;
  int c = col + 1;
  while (c > 0) {
    letters.insert(letters.begin(), static_cast<char>('A' + (c - 1) % 26));
    c = (c - 1) / 26;
  }
  return letters + std::to_string(row + 1);
}

ExcelCell& ExcelSim::cell(int row, int col) { return cells_[{row, col}]; }

const ExcelCell* ExcelSim::find_cell(int row, int col) const {
  auto it = cells_.find({row, col});
  return it == cells_.end() ? nullptr : &it->second;
}

void ExcelSim::SetCellValue(int row, int col, const std::string& value) {
  ExcelCell& c = cell(row, col);
  if (support::StartsWith(value, "=")) {
    c.formula = value;
    c.value = Evaluate(value);
  } else {
    c.formula.clear();
    c.value = value;
  }
  SyncCellControl(row, col);
  ReapplyConditionalRules();
}

void ExcelSim::SetActiveCell(int row, int col) {
  active_row_ = std::clamp(row, 0, kRows - 1);
  active_col_ = std::clamp(col, 0, kCols - 1);
  gsim::Control* cc = CellControl(active_row_, active_col_);
  if (cc != nullptr) {
    SelectControl(*cc, /*additive=*/false);
  }
  if (name_box_ != nullptr) {
    name_box_->set_text_value(MakeRef(active_row_, active_col_));
  }
  if (formula_bar_ != nullptr) {
    const ExcelCell* c = find_cell(active_row_, active_col_);
    formula_bar_->set_text_value(
        c == nullptr ? "" : (c->formula.empty() ? c->value : c->formula));
  }
}

gsim::Control* ExcelSim::CellControl(int row, int col) const {
  if (row < 0 || row >= kRows || col < 0 || col >= kCols) {
    return nullptr;
  }
  return cell_ctrls_[static_cast<size_t>(row)][static_cast<size_t>(col)];
}

bool ExcelSim::SelectionBounds(int* row0, int* col0, int* row1, int* col1) const {
  bool any = false;
  int r0 = kRows, c0 = kCols, r1 = -1, c1 = -1;
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kCols; ++c) {
      const gsim::Control* cc = cell_ctrls_[static_cast<size_t>(r)][static_cast<size_t>(c)];
      if (cc != nullptr && cc->selected()) {
        any = true;
        r0 = std::min(r0, r);
        c0 = std::min(c0, c);
        r1 = std::max(r1, r);
        c1 = std::max(c1, c);
      }
    }
  }
  if (!any) {
    return false;
  }
  *row0 = r0;
  *col0 = c0;
  *row1 = r1;
  *col1 = c1;
  return true;
}

std::string ExcelSim::Evaluate(const std::string& input) const {
  // "=FUNC(REF:REF)" with FUNC in SUM/AVERAGE/COUNT/MIN/MAX.
  char func[16] = {0};
  char a[16] = {0};
  char b[16] = {0};
  if (std::sscanf(input.c_str(), "=%15[A-Za-z](%15[A-Za-z0-9]:%15[A-Za-z0-9])", func, a, b) !=
      3) {
    return input;  // unsupported expression: display as typed
  }
  int r0, c0, r1, c1;
  if (!ParseRef(a, &r0, &c0) || !ParseRef(b, &r1, &c1)) {
    return "#REF!";
  }
  if (r1 < r0) {
    std::swap(r0, r1);
  }
  if (c1 < c0) {
    std::swap(c0, c1);
  }
  const std::string f = support::ToLower(func);
  double sum = 0.0, mn = 0.0, mx = 0.0;
  int count = 0;
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      const ExcelCell* cellp = find_cell(r, c);
      double v = 0.0;
      if (cellp == nullptr || !IsNumeric(cellp->value, &v)) {
        continue;
      }
      if (count == 0) {
        mn = mx = v;
      } else {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      sum += v;
      ++count;
    }
  }
  if (f == "sum") {
    return FormatNumber(sum);
  }
  if (f == "average") {
    return count == 0 ? "#DIV/0!" : FormatNumber(sum / count);
  }
  if (f == "count") {
    return FormatNumber(count);
  }
  if (f == "min") {
    return count == 0 ? "0" : FormatNumber(mn);
  }
  if (f == "max") {
    return count == 0 ? "0" : FormatNumber(mx);
  }
  return input;
}

void ExcelSim::SeedData() {
  // A small sales table: headers + 12 rows x 4 cols, plus sparse values.
  const char* headers[] = {"Region", "Q1", "Q2", "Total"};
  for (int c = 0; c < 4; ++c) {
    SetCellValue(0, c, headers[c]);
    cell(0, c).bold = true;
  }
  const char* regions[] = {"North", "South", "East", "West", "Central", "Coast"};
  for (int r = 1; r <= 12; ++r) {
    SetCellValue(r, 0, std::string(regions[(r - 1) % 6]) + " " + std::to_string(1 + (r - 1) / 6));
    SetCellValue(r, 1, std::to_string(40 + (r * 37) % 160));
    SetCellValue(r, 2, std::to_string(55 + (r * 53) % 140));
  }
  SetActiveCell(0, 0);
}

void ExcelSim::BuildUi(const OfficeScale& scale) {
  gsim::Control& root = main_window().root();

  shared_palette_ = RegisterSharedSubtree(BuildColorPalette("color.pick", "more_colors_dialog"));

  gsim::Control* qat = root.NewChild("Quick Access Toolbar", uia::ControlType::kToolBar);
  AddButton(*qat, "Save", "file.save");
  AddButton(*qat, "Undo", "edit.undo");

  gsim::Control* file_menu = AddMenuButton(root, "File", uia::ControlType::kMenuItem);
  AddButton(*file_menu, "New Workbook", "file.new");
  AddButton(*file_menu, "Open", "file.open");
  file_menu->NewChild("Account", uia::ControlType::kButton)
      ->SetClickEffect(gsim::ClickEffect::kExternal);

  gsim::Control* tab_strip = root.NewChild("Ribbon Tabs", uia::ControlType::kTab);
  BuildHomeTab(*AddRibbonTab(*tab_strip, "Home", /*active=*/true), scale);
  BuildInsertTab(*AddRibbonTab(*tab_strip, "Insert", false), scale);
  BuildFormulasTab(*AddRibbonTab(*tab_strip, "Formulas", false), scale);
  BuildDataTab(*AddRibbonTab(*tab_strip, "Data", false), scale);
  BuildBulkTabs(*tab_strip, scale);

  // Formula bar strip: Name Box + formula editor.
  gsim::Control* bar = root.NewChild("Formula Bar Strip", uia::ControlType::kPane);
  name_box_ = bar->NewChild("Name Box", uia::ControlType::kEdit);
  name_box_->SetAutomationId("name_box");
  name_box_->SetHelpText(
      "Cell reference box. Type a reference like C7 and press ENTER to jump; "
      "input does not commit until ENTER.");
  formula_bar_ = bar->NewChild("Formula Bar", uia::ControlType::kEdit);
  formula_bar_->SetAutomationId("formula_bar");
  formula_bar_->SetHelpText(
      "Edit the active cell's contents. Press ENTER to commit the value.");

  BuildGridArea();
  BuildDialogs(scale);

  // Sheet tabs + status bar.
  gsim::Control* sheets = root.NewChild("Sheet Tabs", uia::ControlType::kTab);
  for (int i = 1; i <= 3; ++i) {
    gsim::Control* t = sheets->NewChild("Sheet" + std::to_string(i), uia::ControlType::kTabItem);
    t->SetClickEffect(gsim::ClickEffect::kSelect);
    if (i == 1) {
      t->set_selected(true);
    }
  }
  AddButton(*sheets, "New Sheet", "sheet.add");
  gsim::Control* status = root.NewChild("Status Bar", uia::ControlType::kStatusBar);
  status->NewChild("Ready", uia::ControlType::kText);
  status->NewChild("Sum: 0", uia::ControlType::kText);
}

void ExcelSim::BuildHomeTab(gsim::Control& panel, const OfficeScale& scale) {
  gsim::Control* clipboard = AddGroup(panel, "Clipboard");
  AddButton(*clipboard, "Paste", "edit.paste");
  AddButton(*clipboard, "Cut", "edit.cut");
  AddButton(*clipboard, "Copy", "edit.copy");

  gsim::Control* font = AddGroup(panel, "Font");
  gsim::Control* font_combo = AddMenuButton(*font, "Font Family", uia::ControlType::kComboBox);
  const int font_count = scale.Scaled(220);
  for (int i = 0; i < font_count; ++i) {
    font_combo->NewChild("Sheet Font " + std::to_string(i + 1), uia::ControlType::kListItem)
        ->SetCommand("fmt.font_family");
  }
  AddToggle(*font, "Bold", "fmt.bold");
  AddToggle(*font, "Italic", "fmt.italic");
  AddToggle(*font, "Underline", "fmt.underline");
  gsim::Control* borders = AddMenuButton(*font, "Cell Borders", uia::ControlType::kSplitButton);
  AddGalleryItems(*borders, "Border Kind", 13, "fmt.border");
  AddSharedPaletteButton(*font, "Fill Color", shared_palette_);
  AddSharedPaletteButton(*font, "Font Color", shared_palette_);

  gsim::Control* align = AddGroup(panel, "Alignment");
  AddButton(*align, "Top Align", "fmt.valign_top");
  AddButton(*align, "Middle Align", "fmt.valign_middle");
  AddButton(*align, "Bottom Align", "fmt.valign_bottom");
  AddButton(*align, "Align Text Left", "fmt.halign_left");
  AddButton(*align, "Center Text", "fmt.halign_center");
  AddButton(*align, "Align Text Right", "fmt.halign_right");
  AddToggle(*align, "Wrap Text", "fmt.wrap");
  gsim::Control* merge = AddMenuButton(*align, "Merge and Center", uia::ControlType::kSplitButton);
  AddButton(*merge, "Merge Center", "fmt.merge_center");
  AddButton(*merge, "Merge Across", "fmt.merge_across");
  AddButton(*merge, "Merge Cells", "fmt.merge");
  AddButton(*merge, "Unmerge Cells", "fmt.unmerge");

  gsim::Control* number = AddGroup(panel, "Number");
  gsim::Control* numfmt = AddMenuButton(*number, "Number Format", uia::ControlType::kComboBox);
  static const char* kFormats[] = {"General",    "Number",   "Currency", "Accounting",
                                   "Short Date", "Long Date", "Time",     "Percentage",
                                   "Fraction",   "Scientific", "Text"};
  for (const char* f : kFormats) {
    numfmt->NewChild(f, uia::ControlType::kListItem)->SetCommand("fmt.number_format");
  }
  AddButton(*number, "Increase Decimal", "fmt.decimal_inc");
  AddButton(*number, "Decrease Decimal", "fmt.decimal_dec");

  gsim::Control* styles = AddGroup(panel, "Styles");
  gsim::Control* cf = AddMenuButton(*styles, "Conditional Formatting",
                                    uia::ControlType::kMenuItem);
  gsim::Control* hcr = AddMenuButton(*cf, "Highlight Cells Rules", uia::ControlType::kMenuItem);
  for (const char* kind : {"Greater Than...", "Less Than...", "Between...", "Equal To...",
                           "Text that Contains...", "Duplicate Values..."}) {
    std::string id = std::string("cf_dialog_") + kind;
    AddDialogLauncher(*hcr, kind, id);
  }
  gsim::Control* tbr = AddMenuButton(*cf, "Top Bottom Rules", uia::ControlType::kMenuItem);
  for (const char* kind : {"Top 10 Items...", "Top 10 Percent...", "Bottom 10 Items...",
                           "Above Average...", "Below Average..."}) {
    AddButton(*tbr, kind, "cf.quick_rule");
  }
  gsim::Control* dbars = AddMenuButton(*cf, "Data Bars", uia::ControlType::kMenuItem);
  AddGalleryItems(*dbars, "Data Bar Style", scale.Scaled(24), "cf.data_bars");
  gsim::Control* cscales = AddMenuButton(*cf, "Color Scales", uia::ControlType::kMenuItem);
  AddGalleryItems(*cscales, "Color Scale", scale.Scaled(24), "cf.color_scale");
  gsim::Control* isets = AddMenuButton(*cf, "Icon Sets", uia::ControlType::kMenuItem);
  AddGalleryItems(*isets, "Icon Set", scale.Scaled(40), "cf.icon_set");
  AddDialogLauncher(*cf, "New Rule...", "cf_new_rule_dialog");
  gsim::Control* clear_rules = AddMenuButton(*cf, "Clear Rules", uia::ControlType::kMenuItem);
  AddButton(*clear_rules, "Clear Rules from Selected Cells", "cf.clear_selected");
  AddButton(*clear_rules, "Clear Rules from Entire Sheet", "cf.clear_all");
  gsim::Control* fmt_table = AddMenuButton(*styles, "Format as Table", uia::ControlType::kMenuItem);
  AddGalleryItems(*fmt_table, "Table Style", scale.Scaled(120), "fmt.as_table");
  gsim::Control* cell_styles = AddMenuButton(*styles, "Cell Styles", uia::ControlType::kMenuItem);
  AddGalleryItems(*cell_styles, "Cell Style", scale.Scaled(100), "fmt.cell_style");

  gsim::Control* cells_grp = AddGroup(panel, "Cells");
  gsim::Control* ins = AddMenuButton(*cells_grp, "Insert Cells", uia::ControlType::kMenuItem);
  AddButton(*ins, "Insert Sheet Rows", "cells.insert_rows");
  AddButton(*ins, "Insert Sheet Columns", "cells.insert_cols");
  gsim::Control* del = AddMenuButton(*cells_grp, "Delete Cells", uia::ControlType::kMenuItem);
  AddButton(*del, "Delete Sheet Rows", "cells.delete_rows");
  AddButton(*del, "Delete Sheet Columns", "cells.delete_cols");
  gsim::Control* fmt_menu = AddMenuButton(*cells_grp, "Format", uia::ControlType::kMenuItem);
  AddButton(*fmt_menu, "Row Height", "cells.row_height");
  AddButton(*fmt_menu, "Column Width", "cells.col_width");
  AddButton(*fmt_menu, "Hide Rows", "cells.hide_rows");
  AddButton(*fmt_menu, "Rename Sheet", "sheet.rename");

  gsim::Control* editing = AddGroup(panel, "Editing");
  gsim::Control* autosum = AddMenuButton(*editing, "AutoSum", uia::ControlType::kSplitButton);
  for (const char* f : {"Sum", "Average", "Count Numbers", "Max", "Min"}) {
    AddButton(*autosum, f, "formula.autosum");
  }
  gsim::Control* fill = AddMenuButton(*editing, "Fill", uia::ControlType::kMenuItem);
  AddGalleryItems(*fill, "Fill Direction", 6, "edit.fill");
  gsim::Control* clear = AddMenuButton(*editing, "Clear", uia::ControlType::kMenuItem);
  AddButton(*clear, "Clear All", "edit.clear_all");
  AddButton(*clear, "Clear Formats", "edit.clear_formats");
  AddButton(*clear, "Clear Contents", "edit.clear_contents");
  gsim::Control* sort = AddMenuButton(*editing, "Sort and Filter", uia::ControlType::kMenuItem);
  AddButton(*sort, "Sort A to Z", "data.sort_asc");
  AddButton(*sort, "Sort Z to A", "data.sort_desc");
  AddDialogLauncher(*sort, "Custom Sort...", "sort_dialog");
  AddToggle(*sort, "Filter", "data.filter");
  gsim::Control* find_sel = AddMenuButton(*editing, "Find and Select", uia::ControlType::kMenuItem);
  AddButton(*find_sel, "Find...", "edit.find");
  AddButton(*find_sel, "Replace...", "edit.replace");
  AddButton(*find_sel, "Go To...", "edit.goto");
}

void ExcelSim::BuildFormulasTab(gsim::Control& panel, const OfficeScale& scale) {
  gsim::Control* lib = AddGroup(panel, "Function Library");
  static const char* kCategories[] = {"Financial",      "Logical",  "Text Functions",
                                      "Date and Time",  "Lookup",   "Math and Trig",
                                      "Statistical",    "Engineering"};
  for (const char* cat : kCategories) {
    gsim::Control* menu = AddMenuButton(*lib, cat, uia::ControlType::kMenuItem);
    AddGalleryItems(*menu, std::string(cat) + " Function", scale.Scaled(90), "formula.insert");
  }
  gsim::Control* names = AddGroup(panel, "Defined Names");
  AddDialogLauncher(*names, "Name Manager", "name_manager_dialog");
  AddButton(*names, "Define Name", "names.define");
  gsim::Control* audit = AddGroup(panel, "Formula Auditing");
  AddButton(*audit, "Trace Precedents", "audit.precedents");
  AddButton(*audit, "Trace Dependents", "audit.dependents");
  AddButton(*audit, "Show Formulas", "audit.show_formulas");
  AddButton(*audit, "Evaluate Formula", "audit.evaluate");
}

void ExcelSim::BuildInsertTab(gsim::Control& panel, const OfficeScale& scale) {
  gsim::Control* tables = AddGroup(panel, "Tables");
  AddDialogLauncher(*tables, "PivotTable", "pivot_dialog");
  AddButton(*tables, "Table", "insert.table");
  gsim::Control* charts = AddGroup(panel, "Charts");
  static const char* kChartKinds[] = {"Column Chart", "Line Chart", "Pie Chart",
                                      "Bar Chart",    "Area Chart", "Scatter Chart",
                                      "Map Chart",    "Stock Chart", "Radar Chart",
                                      "Combo Chart"};
  for (const char* kind : kChartKinds) {
    gsim::Control* menu = AddMenuButton(*charts, kind, uia::ControlType::kMenuItem);
    AddGalleryItems(*menu, std::string(kind) + " Subtype", scale.Scaled(20), "chart.insert");
  }
  gsim::Control* spark = AddGroup(panel, "Sparklines");
  AddDialogLauncher(*spark, "Line Sparkline", "sparkline_dialog");
  AddDialogLauncher(*spark, "Column Sparkline", "sparkline_dialog");
  gsim::Control* text_grp = AddGroup(panel, "Text");
  gsim::Control* header = AddMenuButton(*text_grp, "Header and Footer", uia::ControlType::kMenuItem);
  AddGalleryItems(*header, "Header Layout", scale.Scaled(40), "insert.header");
  AddButton(*text_grp, "Text Box", "insert.textbox");
}

void ExcelSim::BuildDataTab(gsim::Control& panel, const OfficeScale& scale) {
  (void)scale;
  gsim::Control* get_data = AddGroup(panel, "Get and Transform");
  gsim::Control* from = AddMenuButton(*get_data, "Get Data", uia::ControlType::kMenuItem);
  AddGalleryItems(*from, "Data Source", scale.Scaled(40), "data.import");
  AddButton(*get_data, "Refresh All", "data.refresh");
  gsim::Control* sort_grp = AddGroup(panel, "Sort and Filter");
  AddButton(*sort_grp, "Sort Ascending", "data.sort_asc");
  AddButton(*sort_grp, "Sort Descending", "data.sort_desc");
  AddDialogLauncher(*sort_grp, "Sort", "sort_dialog");
  AddToggle(*sort_grp, "Filter Toggle", "data.filter");
  gsim::Control* tools = AddGroup(panel, "Data Tools");
  AddDialogLauncher(*tools, "Text to Columns", "text_columns_dialog");
  AddDialogLauncher(*tools, "Remove Duplicates", "remove_dup_dialog");
  AddDialogLauncher(*tools, "Data Validation", "validation_dialog");
  gsim::Control* outline = AddGroup(panel, "Outline");
  AddButton(*outline, "Group Rows", "outline.group");
  AddButton(*outline, "Ungroup Rows", "outline.ungroup");
  AddButton(*outline, "Subtotal", "outline.subtotal");
}

void ExcelSim::BuildBulkTabs(gsim::Control& tab_strip, const OfficeScale& scale) {
  for (const char* tab_name : {"Page Layout", "Review", "View"}) {
    gsim::Control* panel = AddRibbonTab(tab_strip, tab_name, false);
    for (int g = 1; g <= 4; ++g) {
      gsim::Control* group =
          AddGroup(*panel, std::string(tab_name) + " Group " + std::to_string(g));
      gsim::Control* menu = AddMenuButton(*group, std::string(tab_name) + " Menu " +
                                          std::to_string(g), uia::ControlType::kMenuItem);
      AddGalleryItems(*menu, std::string(tab_name) + " Choice " + std::to_string(g),
                      scale.Scaled(40), "bulk.apply");
      AddButton(*group, std::string(tab_name) + " Action " + std::to_string(g), "bulk.action");
    }
  }
}

void ExcelSim::BuildGridArea() {
  gsim::Control& root = main_window().root();
  grid_ = root.NewChild("Sheet Grid", uia::ControlType::kDataGrid);
  grid_->SetHelpText("The worksheet cell grid");
  grid_->AttachPattern(std::make_unique<ExcelGridPattern>(this));
  auto grid_scroll = std::make_unique<SurfaceScroll>(
      /*horizontal=*/true, /*vertical=*/true, [this](double h, double v) {
        h_scroll_ = h;
        v_scroll_ = v;
        UpdateViewport();
      });
  grid_scroll_ = grid_scroll.get();
  grid_->AttachPattern(std::move(grid_scroll));
  cell_ctrls_.resize(kRows);
  row_panes_.resize(kRows);
  for (int r = 0; r < kRows; ++r) {
    gsim::Control* row_pane =
        grid_->NewChild("Row " + std::to_string(r + 1), uia::ControlType::kPane);
    row_panes_[static_cast<size_t>(r)] = row_pane;
    cell_ctrls_[static_cast<size_t>(r)].resize(kCols);
    for (int c = 0; c < kCols; ++c) {
      gsim::Control* cc = row_pane->NewChild(MakeRef(r, c), uia::ControlType::kDataItem);
      cc->SetAutomationId(MakeRef(r, c));
      cc->SetClickEffect(gsim::ClickEffect::kSelect);
      cell_ctrls_[static_cast<size_t>(r)][static_cast<size_t>(c)] = cc;
    }
  }
  gsim::Control* vbar = root.NewChild("Vertical Scroll Bar", uia::ControlType::kScrollBar);
  vbar->NewChild("Vertical Thumb", uia::ControlType::kThumb);
  gsim::Control* hbar = root.NewChild("Horizontal Scroll Bar", uia::ControlType::kScrollBar);
  hbar->NewChild("Horizontal Thumb", uia::ControlType::kThumb);
}

void ExcelSim::BuildDialogs(const OfficeScale& scale) {
  // Conditional-formatting dialogs share a shape: a value edit, a format
  // preset combo, and OK applying the rule to the selection.
  for (const char* kind : {"Greater Than...", "Less Than...", "Between...", "Equal To...",
                           "Text that Contains...", "Duplicate Values..."}) {
    std::string kind_str(kind);
    std::string bare = kind_str.substr(0, kind_str.size() - 3);  // strip "..."
    std::string compact = support::ReplaceAll(bare, " ", "");
    auto dialog = MakeDialog(bare, "cf.apply:" + compact);
    gsim::Control& r = dialog->root();
    gsim::Control* v = r.NewChild("Format cells that are " + bare, uia::ControlType::kEdit);
    v->SetAutomationId("cf_value");
    if (bare == "Between") {
      r.NewChild("and", uia::ControlType::kEdit)->SetAutomationId("cf_value2");
    }
    gsim::Control* with = AddMenuButton(r, "with format", uia::ControlType::kComboBox);
    for (const char* preset : {"Light Red Fill", "Yellow Fill", "Green Fill",
                               "Red Text Format", "Red Border Format"}) {
      with->NewChild(preset, uia::ControlType::kListItem)->SetCommand("cf.format_choice");
    }
    RegisterDialog("cf_dialog_" + kind_str, std::move(dialog));
  }

  for (const auto& [id, title, ok_cmd] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"cf_new_rule_dialog", "New Formatting Rule", "cf.apply:Custom"},
           {"sort_dialog", "Sort", "data.sort_custom"},
           {"name_manager_dialog", "Name Manager", ""},
           {"pivot_dialog", "Create PivotTable", "insert.pivot"},
           {"sparkline_dialog", "Create Sparklines", "insert.sparkline"},
           {"text_columns_dialog", "Convert Text to Columns", "data.text_to_columns"},
           {"remove_dup_dialog", "Remove Duplicates", "data.remove_duplicates"},
           {"validation_dialog", "Data Validation", "data.validation"},
           {"more_colors_dialog", "Colors", ""},
       }) {
    auto dialog = MakeDialog(title, ok_cmd);
    gsim::Control& r = dialog->root();
    if (id == "more_colors_dialog") {
      gsim::Control* honeycomb = r.NewChild("Custom Color Grid", uia::ControlType::kList);
      for (int i = 0; i < scale.Scaled(216); ++i) {
        honeycomb->NewChild("Custom Color " + std::to_string(i), uia::ControlType::kListItem)
            ->SetCommand("color.pick");
      }
    } else {
      for (int i = 1; i <= 6; ++i) {
        gsim::Control* opt =
            r.NewChild(title + " Option " + std::to_string(i), uia::ControlType::kCheckBox);
        opt->SetClickEffect(gsim::ClickEffect::kToggle);
      }
      r.NewChild(title + " Value", uia::ControlType::kEdit);
    }
    RegisterDialog(id, std::move(dialog));
  }
}

void ExcelSim::UpdateViewport() {
  const int top = static_cast<int>(v_scroll_ / 100.0 * (kRows - kViewRows) + 0.5);
  const int left = static_cast<int>(h_scroll_ / 100.0 * (kCols - kViewCols) + 0.5);
  for (int r = 0; r < kRows; ++r) {
    const bool row_visible = r >= top && r < top + kViewRows;
    row_panes_[static_cast<size_t>(r)]->SetForcedOffscreen(!row_visible);
    for (int c = 0; c < kCols; ++c) {
      const bool col_visible = c >= left && c < left + kViewCols;
      cell_ctrls_[static_cast<size_t>(r)][static_cast<size_t>(c)]->SetForcedOffscreen(
          !row_visible || !col_visible);
    }
  }
}

void ExcelSim::SyncCellControl(int row, int col) {
  gsim::Control* cc = CellControl(row, col);
  if (cc == nullptr) {
    return;
  }
  const ExcelCell* c = find_cell(row, col);
  cc->set_text_value(c == nullptr ? "" : c->value);
}

void ExcelSim::ReapplyConditionalRules() {
  for (auto& [key, c] : cells_) {
    c.cf_highlighted = false;
  }
  for (const CfRule& rule : cf_rules_) {
    for (int r = rule.row0; r <= rule.row1; ++r) {
      for (int c = rule.col0; c <= rule.col1; ++c) {
        // Note: the rule applies to every cell in the region, including
        // blanks — blank cells compare as 0 (the §5.6 gotcha).
        ExcelCell& cellv = cell(r, c);
        double v = 0.0;
        IsNumeric(cellv.value, &v);
        bool hit = false;
        if (rule.kind == "GreaterThan") {
          hit = v > rule.threshold;
        } else if (rule.kind == "LessThan") {
          hit = v < rule.threshold;
        } else if (rule.kind == "Between") {
          hit = v >= rule.threshold && v <= rule.threshold2;
        } else if (rule.kind == "EqualTo") {
          hit = v == rule.threshold;
        } else if (rule.kind == "TextthatContains") {
          hit = !cf_pending_value_.empty() &&
                cellv.value.find(cf_pending_value_) != std::string::npos;
        } else {
          hit = !cellv.value.empty();
        }
        if (hit) {
          cellv.cf_highlighted = true;
        }
      }
    }
  }
}

support::Status ExcelSim::ApplySelectedCells(const std::function<void(ExcelCell&)>& fn) {
  int r0, c0, r1, c1;
  if (!SelectionBounds(&r0, &c0, &r1, &c1)) {
    return support::FailedPreconditionError("no cells are selected");
  }
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      fn(cell(r, c));
    }
  }
  return support::Status::Ok();
}

support::Status ExcelSim::ApplyConditionalRule(const std::string& kind) {
  int r0, c0, r1, c1;
  if (!SelectionBounds(&r0, &c0, &r1, &c1)) {
    return support::FailedPreconditionError(
        "select a cell range before applying a conditional rule");
  }
  CfRule rule;
  rule.kind = kind;
  rule.threshold = std::atof(cf_pending_value_.c_str());
  rule.threshold2 = std::atof(cf_pending_value2_.c_str());
  rule.format = cf_pending_format_;
  rule.row0 = r0;
  rule.col0 = c0;
  rule.row1 = r1;
  rule.col1 = c1;
  cf_rules_.push_back(rule);
  ReapplyConditionalRules();
  return support::Status::Ok();
}

support::Status ExcelSim::ExecuteCommand(gsim::Control& source, const std::string& command) {
  const std::string name = source.TrueName();

  if (command == "color.pick") {
    const std::vector<std::string> chain = OpenAncestorNames(source);
    const bool fill = std::find(chain.begin(), chain.end(), "Fill Color") != chain.end();
    return ApplySelectedCells([&](ExcelCell& c) {
      if (fill) {
        c.fill_color = name;
      } else {
        c.font_color = name;
      }
    });
  }
  if (command == "fmt.bold") {
    return ApplySelectedCells([&](ExcelCell& c) { c.bold = source.toggled(); });
  }
  if (command == "fmt.italic") {
    return ApplySelectedCells([&](ExcelCell& c) { c.italic = source.toggled(); });
  }
  if (command == "fmt.number_format") {
    return ApplySelectedCells([&](ExcelCell& c) { c.number_format = name; });
  }
  if (support::StartsWith(command, "cf.apply:")) {
    return ApplyConditionalRule(command.substr(std::string("cf.apply:").size()));
  }
  if (command == "cf.format_choice") {
    cf_pending_format_ = name;
    return support::Status::Ok();
  }
  if (command == "cf.clear_all") {
    cf_rules_.clear();
    ReapplyConditionalRules();
    return support::Status::Ok();
  }
  if (command == "data.sort_asc" || command == "data.sort_desc") {
    // Sorts the used data rows (1..N) by the active cell's column.
    const bool asc = command == "data.sort_asc";
    int last_row = 0;
    for (const auto& [key, c] : cells_) {
      if (!c.value.empty()) {
        last_row = std::max(last_row, key.first);
      }
    }
    std::vector<std::vector<ExcelCell>> rows;
    for (int r = 1; r <= last_row; ++r) {
      std::vector<ExcelCell> row;
      for (int c = 0; c < kCols; ++c) {
        const ExcelCell* p = find_cell(r, c);
        row.push_back(p == nullptr ? ExcelCell{} : *p);
      }
      rows.push_back(std::move(row));
    }
    const int key_col = active_col_;
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const std::vector<ExcelCell>& a, const std::vector<ExcelCell>& b) {
                       double va = 0.0, vb = 0.0;
                       const bool na = IsNumeric(a[static_cast<size_t>(key_col)].value, &va);
                       const bool nb = IsNumeric(b[static_cast<size_t>(key_col)].value, &vb);
                       if (na && nb) {
                         return asc ? va < vb : va > vb;
                       }
                       return asc ? a[static_cast<size_t>(key_col)].value <
                                        b[static_cast<size_t>(key_col)].value
                                  : a[static_cast<size_t>(key_col)].value >
                                        b[static_cast<size_t>(key_col)].value;
                     });
    for (int r = 1; r <= last_row; ++r) {
      for (int c = 0; c < kCols; ++c) {
        cells_[{r, c}] = rows[static_cast<size_t>(r - 1)][static_cast<size_t>(c)];
        SyncCellControl(r, c);
      }
    }
    sorted_ascending_ = asc;
    return support::Status::Ok();
  }
  if (command == "data.filter") {
    filter_enabled_ = source.toggled();
    return support::Status::Ok();
  }
  if (command == "formula.autosum") {
    // Sums the contiguous numeric run above the active cell.
    int r = active_row_ - 1;
    while (r >= 0) {
      const ExcelCell* p = find_cell(r, active_col_);
      if (p == nullptr || !IsNumeric(p->value, nullptr)) {
        break;
      }
      --r;
    }
    const int first = r + 1;
    if (first >= active_row_) {
      return support::FailedPreconditionError("no numeric run above the active cell to sum");
    }
    SetCellValue(active_row_, active_col_,
                 "=SUM(" + MakeRef(first, active_col_) + ":" +
                     MakeRef(active_row_ - 1, active_col_) + ")");
    return support::Status::Ok();
  }

  effects_.insert(command + ":" + name);
  return support::Status::Ok();
}

support::Status ExcelSim::OnKeyChord(const std::string& chord) {
  if (chord != "ENTER") {
    return support::Status::Ok();
  }
  gsim::Control* f = focused();
  if (f == nullptr) {
    return support::Status::Ok();
  }
  if (f == name_box_) {
    int r, c;
    if (!ParseRef(support::Trim(f->text_value()), &r, &c)) {
      return support::InvalidArgumentError("Name Box does not contain a valid cell reference");
    }
    SetActiveCell(r, c);
    // Jumping scrolls the viewport to show the target cell.
    auto* scroll = uia::PatternCast<uia::ScrollPattern>(*grid_);
    if (scroll != nullptr && (r < static_cast<int>(v_scroll_ / 100.0 * (kRows - kViewRows)) ||
                              r >= static_cast<int>(v_scroll_ / 100.0 * (kRows - kViewRows)) +
                                       kViewRows)) {
      const double pct = 100.0 * r / (kRows - kViewRows);
      scroll->SetScrollPercent(uia::ScrollPattern::kNoScroll, std::clamp(pct, 0.0, 100.0));
    }
    return support::Status::Ok();
  }
  if (f == formula_bar_) {
    SetCellValue(active_row_, active_col_, f->text_value());
    return support::Status::Ok();
  }
  if (f->Type() == uia::ControlType::kDataItem) {
    // Typing directly into a cell then pressing ENTER.
    int r, c;
    if (ParseRef(f->AutomationId(), &r, &c)) {
      SetCellValue(r, c, f->text_value());
    }
    return support::Status::Ok();
  }
  return support::Status::Ok();
}

void ExcelSim::OnValueChanged(gsim::Control& control) {
  if (control.AutomationId() == "cf_value") {
    cf_pending_value_ = control.text_value();
  } else if (control.AutomationId() == "cf_value2") {
    cf_pending_value2_ = control.text_value();
  }
  // Name Box and Formula Bar deliberately do NOT commit here: they commit on
  // ENTER only (see OnKeyChord) — the instruction-description lesson of §5.7.
}

void ExcelSim::OnSelectionChanged(gsim::Control& control) {
  if (control.Type() == uia::ControlType::kDataItem && control.selected()) {
    int r, c;
    if (ParseRef(control.AutomationId(), &r, &c)) {
      active_row_ = r;
      active_col_ = c;
      if (name_box_ != nullptr) {
        name_box_->set_text_value(MakeRef(r, c));
      }
      if (formula_bar_ != nullptr) {
        const ExcelCell* cellp = find_cell(r, c);
        formula_bar_->set_text_value(
            cellp == nullptr ? "" : (cellp->formula.empty() ? cellp->value : cellp->formula));
      }
    }
  }
}

void ExcelSim::OnFactoryReset() {
  cells_.clear();
  cf_rules_.clear();
  sorted_ascending_ = false;
  filter_enabled_ = false;
  effects_.clear();
  cf_pending_value_.clear();
  cf_pending_value2_.clear();
  cf_pending_format_ = "Light Red Fill";
  if (grid_scroll_ != nullptr) {
    grid_scroll_->ResetPosition();  // zeroes h_/v_scroll_ and re-derives the viewport
  } else {
    h_scroll_ = 0.0;
    v_scroll_ = 0.0;
  }
  SeedData();
}

void ExcelSim::AppStateDigest(gsim::StateHash& hash) const {
  hash.MixU64(cells_.size());
  for (const auto& [key, c] : cells_) {
    hash.MixU64(static_cast<uint64_t>(key.first));
    hash.MixU64(static_cast<uint64_t>(key.second));
    hash.Mix(c.value);
    hash.Mix(c.formula);
    hash.MixBool(c.bold);
    hash.MixBool(c.italic);
    hash.Mix(c.fill_color);
    hash.Mix(c.font_color);
    hash.Mix(c.number_format);
    hash.MixBool(c.cf_highlighted);
  }
  hash.MixU64(static_cast<uint64_t>(active_row_));
  hash.MixU64(static_cast<uint64_t>(active_col_));
  hash.MixU64(cf_rules_.size());
  for (const CfRule& r : cf_rules_) {
    hash.Mix(r.kind);
    hash.MixDouble(r.threshold);
    hash.MixDouble(r.threshold2);
    hash.Mix(r.format);
    hash.MixU64(static_cast<uint64_t>(r.row0));
    hash.MixU64(static_cast<uint64_t>(r.col0));
    hash.MixU64(static_cast<uint64_t>(r.row1));
    hash.MixU64(static_cast<uint64_t>(r.col1));
  }
  hash.MixBool(sorted_ascending_);
  hash.MixBool(filter_enabled_);
  hash.MixU64(effects_.size());
  for (const std::string& e : effects_) {
    hash.Mix(e);
  }
  hash.MixDouble(v_scroll_);
  hash.MixDouble(h_scroll_);
  hash.Mix(cf_pending_value_);
  hash.Mix(cf_pending_value2_);
  hash.Mix(cf_pending_format_);
}

}  // namespace apps
