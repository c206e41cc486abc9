// Scenario: document automation in WordSim through DMI.
//
// The workload the paper's introduction motivates: batch formatting and
// find-and-replace that would take a dozen fragile GUI clicks, expressed as a
// handful of declarative calls:
//   - select paragraphs 1-3 (state declaration) and make them bold + blue;
//   - set Standard Red underline on paragraph 5 (path-dependent palette!);
//   - replace "committee" with "board" everywhere (dialog driven, one visit);
//   - read back the result with get_texts (observation declaration).
//
// Build & run:  cmake --build build && ./build/examples/word_automation
#include <cstdio>

#include "src/apps/word_sim.h"
#include "src/dmi/session.h"
#include "src/ripper/ripper.h"

namespace {

dmi::VisitCommand Access(const dmi::ResolvedTarget& t, const std::string& text = "") {
  dmi::VisitCommand c;
  c.kind = text.empty() ? dmi::VisitCommand::Kind::kAccess
                        : dmi::VisitCommand::Kind::kAccessInput;
  c.target_id = t.id;
  c.entry_ref_ids = t.entry_ref_ids;
  c.text = text;
  return c;
}

}  // namespace

int main() {
  // Offline: model WordSim (cacheable per app build).
  dmi::ModelingOptions options;
  options.ripper_config.blocklist = {"Account", "Feedback"};
  apps::WordSim scratch;
  ripper::GuiRipper rip(scratch, options.ripper_config);
  topo::NavGraph graph = rip.Rip();

  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(graph, options));
  std::printf("modeled WordSim: %zu controls -> %zu-node forest, core %zu tokens\n\n",
              session.stats().raw.nodes, session.stats().forest_nodes,
              session.stats().core_tokens);

  // ----- 1. select paragraphs 1-3 and format them -----------------------------
  session.screen().Refresh();
  const std::string doc = session.screen().LabelOf(*app.document_control());
  auto sel = session.interaction().SelectParagraphs(doc, 0, 2);
  if (!sel.ok()) {
    std::printf("selection failed: %s\n", sel.status().ToString().c_str());
    return 1;
  }
  std::printf("selected paragraphs 1-3:\n%s\n", sel->selected_text.c_str());

  auto bold = session.ResolveTargetByNames({"Font", "Bold"});
  auto blue = session.ResolveTargetByNames({"Font Color", "Blue"});
  dmi::VisitReport fmt = session.VisitParsed({Access(*bold), Access(*blue)});
  std::printf("formatting: %s", fmt.Render().c_str());

  // ----- 2. path-dependent palette: underline color on paragraph 5 -------------
  (void)session.interaction().SelectParagraphs(doc, 4, 4);
  auto underline_red = session.ResolveTargetByNames({"Underline Color", "Standard Red"});
  dmi::VisitReport ur = session.VisitParsed({Access(*underline_red)});
  std::printf("underline color: %s", ur.Render().c_str());

  // ----- 3. find & replace, one declarative call --------------------------------
  auto find_what = session.ResolveTargetByNames({"Find and Replace", "Find what"});
  auto replace_with = session.ResolveTargetByNames({"Find and Replace", "Replace with"});
  auto replace_all = session.ResolveTargetByNames({"Find and Replace", "Replace All"});
  dmi::VisitReport fr = session.VisitParsed({Access(*find_what, "committee"),
                                             Access(*replace_with, "board"),
                                             Access(*replace_all)});
  std::printf("find&replace: %sreplacements: %d\n", fr.Render().c_str(),
              app.replace_count());

  // ----- 4. observation: read the document back ---------------------------------
  session.screen().Refresh();
  auto text = session.interaction().GetTextsActive(
      session.screen().LabelOf(*app.document_control()));
  if (text.ok()) {
    std::printf("\ndocument head after automation:\n");
    size_t shown = 0;
    for (const auto& p : app.paragraphs()) {
      if (shown++ == 5) {
        break;
      }
      std::printf("  [%s%s%s] %s\n", p.fmt.bold ? "B" : "-",
                  p.fmt.color == "Blue" ? "blue" : "----",
                  p.fmt.underline ? (":" + p.fmt.underline_color).c_str() : "",
                  p.text.c_str());
    }
  }
  return 0;
}
