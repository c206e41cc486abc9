// Table 1 reproduction: imperative GUI action chains vs declarative DMI calls
// on the paper's two running examples.
//
//   Task 1: make the background blue on all slides.
//     GUI:  click(Design) -> click(Format Background) -> click(Solid fill)
//           -> click(Fill Color) -> click(Blue) -> click(Apply to All)
//     DMI:  visit(["Solid fill", "Blue", "Apply to All"])   (one call)
//   Task 2: show the area close to the end.
//     GUI:  iterative drag-and-drop on the scrollbar
//     DMI:  set_scrollbar_pos(80%)
#include <cstdio>

#include "bench/bench_common.h"
#include "src/apps/ppoint_sim.h"
#include "src/dmi/session.h"
#include "src/ripper/ripper.h"
#include "src/uia/tree.h"

int main() {
  bench::PrintHeader("Table 1: imperative GUI vs declarative DMI (task examples)");

  // ----- Task 1, imperative ---------------------------------------------------
  apps::PpointSim gui_app;
  const char* chain[] = {"Design",     "Format Background", "Solid fill",
                         "Fill Color", "Blue",              "Apply to All"};
  int gui_actions = 0;
  for (const char* name : chain) {
    auto* c = static_cast<gsim::Control*>(
        uia::FindByName(gui_app.main_window().root(), name));
    if (c == nullptr || !gui_app.Click(*c).ok()) {
      std::printf("GUI chain broke at '%s'\n", name);
      return 1;
    }
    ++gui_actions;
  }
  bool gui_ok = true;
  for (const auto& s : gui_app.slides()) {
    gui_ok &= s.background_color == "Blue" && s.background_solid;
  }

  // ----- Task 1, declarative ----------------------------------------------------
  dmi::ModelingOptions options =
      agentsim::TaskRunner::DefaultModelingOptions(workload::AppKind::kPpoint);
  apps::PpointSim scratch;
  ripper::GuiRipper rip(scratch, options.ripper_config);
  topo::NavGraph graph = rip.Rip(options.contexts);
  apps::PpointSim dmi_app;
  dmi::DmiSession session(dmi_app, dmi::CompiledModel::Compile(graph, options));

  auto solid = session.ResolveTargetByNames({"Format Background Pane", "Solid fill"});
  auto blue = session.ResolveTargetByNames({"Fill Color", "Blue"});
  auto apply = session.ResolveTargetByNames({"Format Background Pane", "Apply to All"});
  if (!solid.ok() || !blue.ok() || !apply.ok()) {
    std::printf("DMI resolution failed\n");
    return 1;
  }
  auto cmd = [](const dmi::ResolvedTarget& t) {
    dmi::VisitCommand c;
    c.kind = dmi::VisitCommand::Kind::kAccess;
    c.target_id = t.id;
    c.entry_ref_ids = t.entry_ref_ids;
    return c;
  };
  dmi::VisitReport report = session.VisitParsed({cmd(*solid), cmd(*blue), cmd(*apply)});
  bool dmi_ok = report.overall.ok();
  for (const auto& s : dmi_app.slides()) {
    dmi_ok &= s.background_color == "Blue" && s.background_solid;
  }

  std::printf("Task 1 (background blue on all slides)\n");
  std::printf("  %-24s %-18s %-10s\n", "interface", "LLM-emitted steps", "verified");
  bench::PrintRule();
  std::printf("  %-24s %-18d %-10s   (paper: 6 clicks)\n", "imperative GUI", gui_actions,
              gui_ok ? "yes" : "NO");
  std::printf("  %-24s %-18s %-10s   (paper: 1 visit call, 3 ids)\n", "declarative DMI",
              "1 call / 3 ids", dmi_ok ? "yes" : "NO");

  // ----- Task 2 -------------------------------------------------------------------
  // Imperative: drag-observe iterations with misperception noise, averaged
  // over 50 seeds (each iteration is one LLM observe-act round trip).
  double total_iterations = 0;
  double final_pos = 0;
  constexpr int kSeeds = 50;
  for (int seed = 0; seed < kSeeds; ++seed) {
    apps::PpointSim trial_app;
    gsim::ScreenView trial_screen(trial_app);
    trial_screen.Refresh();
    gsim::InputDriver trial_input(trial_app, trial_screen, nullptr);
    support::Rng rng(static_cast<uint64_t>(seed) + 7);
    auto* sp = uia::PatternCast<uia::ScrollPattern>(*trial_app.slide_view_control());
    int it = 0;
    while (std::abs(sp->VerticalPercent() - 80.0) > 8.0 && it < 10) {
      // Misperceive the current position, drag by the perceived delta, and
      // overshoot/undershoot the drag amount itself.
      const double perceived = rng.Gaussian(sp->VerticalPercent(), 9.0);
      const double delta = (80.0 - perceived) * rng.Gaussian(1.0, 0.25);
      (void)trial_input.DragScrollThumb(*trial_app.slide_view_control(), true, delta);
      ++it;
    }
    total_iterations += it;
    final_pos += trial_app.view_scroll_percent();
  }
  const double iterations = total_iterations / kSeeds;
  apps::PpointSim gui_app2;
  {
    gsim::ScreenView s2(gui_app2);
    s2.Refresh();
    auto* sp = uia::PatternCast<uia::ScrollPattern>(*gui_app2.slide_view_control());
    (void)sp->SetScrollPercent(uia::ScrollPattern::kNoScroll, final_pos / kSeeds);
  }

  // Declarative: one state declaration.
  apps::PpointSim dmi_app2;
  gsim::ScreenView screen2(dmi_app2);
  screen2.Refresh();
  dmi::InteractionInterfaces ix(dmi_app2, screen2);
  auto status = ix.SetScrollbarPos(screen2.LabelOf(*dmi_app2.slide_view_control()), -1, 80.0);

  std::printf("\nTask 2 (show the area close to the end)\n");
  std::printf("  %-24s %-18s %-10s\n", "interface", "interactions", "result");
  bench::PrintRule();
  std::printf("  %-24s %-18.1f v=%.0f%%      (paper: iterative drag and drop)\n",
              "imperative GUI", iterations, gui_app2.view_scroll_percent());
  std::printf("  %-24s %-18d v=%.0f%%      (paper: set_scrollbar_pos(80%%))\n",
              "declarative DMI", 1, dmi_app2.view_scroll_percent());
  std::printf("\nshape check: DMI uses 1 declarative call per task; GUI needs %d clicks "
              "and %.1f drag-observe iterations on average.\n", gui_actions, iterations);
  return (gui_ok && dmi_ok && status.ok()) ? 0 : 1;
}
