// Scenario: building a spreadsheet report in ExcelSim through DMI.
//
//   - jump to a cell via the Name Box (access-and-input + the ENTER commit
//     the control's rich description documents, §5.7);
//   - add a SUM formula through the Formula Bar;
//   - select the data region and apply a Greater-Than conditional rule
//     through the dialog in a single visit call;
//   - sort by a column and read the grid back via passive get_texts.
//
// Build & run:  cmake --build build && ./build/examples/excel_report
#include <cstdio>

#include "src/apps/excel_sim.h"
#include "src/dmi/session.h"
#include "src/ripper/ripper.h"

namespace {

dmi::VisitCommand Access(const dmi::ResolvedTarget& t, const std::string& text = "",
                         const std::string& shortcut = "") {
  dmi::VisitCommand c;
  c.kind = text.empty() ? dmi::VisitCommand::Kind::kAccess
                        : dmi::VisitCommand::Kind::kAccessInput;
  c.target_id = t.id;
  c.entry_ref_ids = t.entry_ref_ids;
  c.text = text;
  (void)shortcut;
  return c;
}

dmi::VisitCommand Key(const std::string& chord) {
  dmi::VisitCommand c;
  c.kind = dmi::VisitCommand::Kind::kShortcut;
  c.shortcut_key = chord;
  return c;
}

}  // namespace

int main() {
  dmi::ModelingOptions options;
  options.ripper_config.blocklist = {"Account"};
  apps::ExcelSim scratch;
  ripper::GuiRipper rip(scratch, options.ripper_config);
  topo::NavGraph graph = rip.Rip();

  apps::ExcelSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(graph, options));
  std::printf("modeled ExcelSim: %zu controls, core %zu tokens\n\n",
              session.stats().raw.nodes, session.stats().core_tokens);

  // ----- 1. Name Box jump + value entry, one visit call -------------------------
  auto name_box = session.ResolveTargetByNames({"Name Box"});
  auto formula_bar = session.ResolveTargetByNames({"Formula Bar"});
  dmi::VisitReport jump = session.VisitParsed({Access(*name_box, "F2"), Key("ENTER"),
                                               Access(*formula_bar, "Projected"),
                                               Key("ENTER")});
  std::printf("name-box jump + entry: %s", jump.Render().c_str());

  // ----- 2. SUM formula under the Q1 column -------------------------------------
  auto b14 = session.ResolveTargetByNames({"B14"});
  dmi::VisitReport sum = session.VisitParsed(
      {Access(*b14), Access(*formula_bar, "=SUM(B2:B13)"), Key("ENTER")});
  std::printf("sum formula: %sB14 = %s\n", sum.Render().c_str(),
              app.find_cell(13, 1)->value.c_str());

  // ----- 3. conditional formatting over B2:C13 -----------------------------------
  session.screen().Refresh();
  std::vector<std::string> labels;
  for (int r = 1; r <= 12; ++r) {
    for (int c = 1; c <= 2; ++c) {
      labels.push_back(session.screen().LabelOf(*app.CellControl(r, c)));
    }
  }
  (void)session.interaction().SelectControls(labels);
  auto cf_value = session.ResolveTargetByNames(
      {"Greater Than", "Format cells that are Greater Than"});
  auto cf_ok = session.ResolveTargetByNames({"Greater Than", "OK"});
  dmi::VisitReport cf =
      session.VisitParsed({Access(*cf_value, "120"), Access(*cf_ok)});
  std::printf("conditional rule: %s", cf.Render().c_str());
  if (!app.cf_rules().empty()) {
    const apps::CfRule& rule = app.cf_rules().back();
    std::printf("rule %s>%g over rows %d-%d cols %d-%d (blanks included!)\n",
                rule.kind.c_str(), rule.threshold, rule.row0 + 1, rule.row1 + 1,
                rule.col0 + 1, rule.col1 + 1);
  }

  // ----- 4. sort ascending by Q1 --------------------------------------------------
  auto b2 = session.ResolveTargetByNames({"B2"});
  auto asc = session.ResolveTargetByNames({"Sort and Filter", "Sort A to Z"});
  dmi::VisitReport sort = session.VisitParsed({Access(*b2), Access(*asc)});
  std::printf("sort: %s", sort.Render().c_str());

  // ----- 5. observation: the passive data payload ---------------------------------
  session.screen().Refresh();
  std::printf("\npassive get_texts payload (first lines):\n");
  std::string payload = session.interaction().GetTextsPassive();
  size_t lines = 0;
  size_t pos = 0;
  while (lines < 10 && pos < payload.size()) {
    size_t nl = payload.find('\n', pos);
    std::printf("  %s\n", payload.substr(pos, nl - pos).c_str());
    pos = nl + 1;
    ++lines;
  }
  return 0;
}
