// Scenario: deck-wide formatting in PpointSim through DMI.
//
// The paper's Table 1 examples plus contextual-tab work:
//   - background blue on all slides: one visit call, three declared ids
//     (vs six imperative clicks);
//   - set_scrollbar_pos(80%) on the slide view (vs iterative drag-observe);
//   - theme + transition across all slides;
//   - the context-dependent Picture Format tab: select the image on slide 3
//     (enforced access, §5.7) and apply a correction preset.
//
// Build & run:  cmake --build build && ./build/examples/ppt_batch_format
#include <cstdio>

#include "src/agent/task_runner.h"
#include "src/apps/ppoint_sim.h"
#include "src/dmi/session.h"
#include "src/ripper/ripper.h"

namespace {

dmi::VisitCommand Access(const dmi::ResolvedTarget& t, bool enforced = false) {
  dmi::VisitCommand c;
  c.target_id = t.id;
  c.entry_ref_ids = t.entry_ref_ids;
  c.enforced = enforced;
  return c;
}

}  // namespace

int main() {
  // Model with the image-selected context so the Picture Format tab exists in
  // the topology (context-aware exploration, §4.1).
  dmi::ModelingOptions options =
      agentsim::TaskRunner::DefaultModelingOptions(workload::AppKind::kPpoint);
  apps::PpointSim scratch;
  ripper::GuiRipper rip(scratch, options.ripper_config);
  topo::NavGraph graph = rip.Rip(options.contexts);

  apps::PpointSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(graph, options));
  std::printf("modeled PpointSim: %zu controls (%zu contexts), core %zu tokens\n\n",
              session.stats().raw.nodes, options.contexts.size() + 1,
              session.stats().core_tokens);

  // ----- Table 1 Task 1: background blue everywhere, one call --------------------
  auto solid = session.ResolveTargetByNames({"Format Background Pane", "Solid fill"});
  auto blue = session.ResolveTargetByNames({"Fill Color", "Blue"});
  auto apply = session.ResolveTargetByNames({"Format Background Pane", "Apply to All"});
  dmi::VisitReport bg = session.VisitParsed({Access(*solid), Access(*blue), Access(*apply)});
  std::printf("background: %s", bg.Render().c_str());
  std::printf("slide backgrounds: all %s\n\n", app.slides()[7].background_color.c_str());

  // ----- Table 1 Task 2: scroll to ~80%, one state declaration --------------------
  session.screen().Refresh();
  auto scroll = session.interaction().SetScrollbarPos(
      session.screen().LabelOf(*app.slide_view_control()), -1.0, 80.0);
  std::printf("slide view: %s\n\n", scroll.ok() ? scroll->ToString().c_str() : "failed");

  // ----- theme + transitions across the deck --------------------------------------
  auto theme = session.ResolveTargetByNames({"Themes Gallery", "Theme 12"});
  auto transition = session.ResolveTargetByNames({"Transition Gallery", "Transition 7"});
  auto everywhere = session.ResolveTargetByNames({"Timing", "Apply To All Slides"});
  dmi::VisitReport deck =
      session.VisitParsed({Access(*theme), Access(*transition), Access(*everywhere)});
  std::printf("deck formatting: %s", deck.Render().c_str());
  std::printf("theme=%s, slide 12 transition=%s\n\n", app.theme().c_str(),
              app.slides()[11].transition.c_str());

  // ----- contextual Picture Format tab ----------------------------------------------
  // Thumbnails and shapes are navigation nodes that are genuinely functional:
  // declare them with enforced access (§5.7's enforced parameter).
  auto slide3 = session.ResolveTargetByNames({"Slide Thumbnails", "Slide 3"});
  auto image = session.ResolveTargetByNames(
      {"Slide 3 Canvas", "Image: Quarterly chart screenshot"});
  auto preset = session.ResolveTargetByNames({"Corrections", "Correction Preset 3"});
  dmi::VisitReport pic = session.VisitParsed(
      {Access(*slide3, /*enforced=*/true), Access(*image, /*enforced=*/true),
       Access(*preset)});
  std::printf("picture correction: %s", pic.Render().c_str());
  std::printf("applied: %s\n",
              app.HasEffect("pic.correction:Correction Preset 3") ? "yes" : "no");
  return 0;
}
