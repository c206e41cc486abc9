// Quickstart: model a small GUI application and drive it through DMI.
//
// This walks the whole public API surface end to end:
//   1. build (or bring) a gsim::Application — here, a tiny settings app;
//   2. rip it into a UI Navigation Graph (offline phase, once per app build);
//   3. compile the graph (decycle -> forest -> catalog) and attach a
//      DmiSession (the executor) to a live instance;
//   4. read the serialized core topology (what an LLM would see);
//   5. access controls declaratively with visit();
//   6. set control state and observe content with the interaction interfaces.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <algorithm>
#include <cstdio>

#include "src/apps/office_common.h"
#include "src/dmi/session.h"
#include "src/gui/application.h"
#include "src/ripper/ripper.h"

namespace {

// A miniature application: a toolbar with a theme menu (whose palette is a
// shared subtree reachable from two places — a merge node), a settings dialog,
// and a scrollable log pane.
class TinyApp : public gsim::Application {
 public:
  TinyApp() : gsim::Application("TinyApp") {
    gsim::Control& root = main_window().root();

    // A shared palette referenced from two menus: "Accent Color" and
    // "Highlight Color" — DMI will externalize it as a shared subtree.
    gsim::Control* palette = RegisterSharedSubtree(
        std::make_unique<gsim::Control>("Swatch List", uia::ControlType::kList));
    for (const char* color : {"Red", "Green", "Blue", "Violet"}) {
      palette->NewChild(color, uia::ControlType::kListItem)->SetCommand("pick_color");
    }

    gsim::Control* bar = root.NewChild("Toolbar", uia::ControlType::kToolBar);
    gsim::Control* accent = bar->NewChild("Accent Color", uia::ControlType::kMenuItem);
    accent->SetSharedPopup(palette);
    gsim::Control* highlight = bar->NewChild("Highlight Color", uia::ControlType::kMenuItem);
    highlight->SetSharedPopup(palette);
    bar->NewChild("Open Settings", uia::ControlType::kButton)->SetDialogId("settings");

    // A scrollable log pane exposing ScrollPattern.
    gsim::Control* log = root.NewChild("Log Pane", uia::ControlType::kPane);
    log->AttachPattern(std::make_unique<apps::SurfaceScroll>(
        false, true, [this](double, double v) { log_scroll = v; }));

    auto dialog = std::make_unique<gsim::Window>("Settings", /*modal=*/true);
    gsim::Control* verbose = dialog->root().NewChild("Verbose Logging",
                                                     uia::ControlType::kCheckBox);
    verbose->SetClickEffect(gsim::ClickEffect::kToggle);
    verbose->SetCommand("toggle_verbose");
    gsim::Control* ok = dialog->root().NewChild("OK", uia::ControlType::kButton);
    ok->SetCloseDisposition(gsim::CloseDisposition::kCommit);
    RegisterDialog("settings", std::move(dialog));
  }

  support::Status ExecuteCommand(gsim::Control& source, const std::string& cmd) override {
    if (cmd == "pick_color") {
      // Path-dependent semantics: the same palette cell means different
      // things depending on which menu hosted it.
      const auto chain = OpenAncestorNames(source);
      const bool is_accent =
          std::find(chain.begin(), chain.end(), "Accent Color") != chain.end();
      (is_accent ? accent_color : highlight_color) = source.TrueName();
    } else if (cmd == "toggle_verbose") {
      verbose_logging = source.toggled();
    }
    return support::Status::Ok();
  }

  std::string accent_color = "none";
  std::string highlight_color = "none";
  bool verbose_logging = false;
  double log_scroll = 0.0;
};

}  // namespace

int main() {
  // ----- offline phase: model the application once per build -----------------
  TinyApp scratch;  // ripping clicks everything; model on a scratch instance
  ripper::RipperConfig rip_config;  // no blocklist needed for this tiny app
  ripper::GuiRipper ripper(scratch, rip_config);
  topo::NavGraph graph = ripper.Rip();
  std::printf("ripped %zu controls, %zu edges (%llu clicks simulated)\n",
              graph.node_count(), graph.edge_count(),
              static_cast<unsigned long long>(ripper.stats().clicks));

  // ----- online phase: bind the model to a live instance -----------------------
  TinyApp app;
  dmi::ModelingOptions options;
  // The default cost threshold (24) would just clone this tiny palette; lower
  // it so the example demonstrates shared subtrees and entry references.
  options.externalize_threshold = 4;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(graph, options));
  std::printf("forest: %zu nodes, %zu shared subtrees, %zu references\n",
              session.stats().forest_nodes, session.stats().shared_subtrees,
              session.stats().references);

  // What the LLM sees: the compact serialized topology + screen + data.
  std::printf("\n--- prompt context (%zu tokens) ---\n%s\n", session.PromptTokens(),
              session.Prompt().Assemble().c_str());

  // ----- access declaration: one visit call, three declarative targets ---------
  // Pick Blue via Accent Color, Violet via Highlight Color (same palette,
  // different entry references!), then toggle the dialog checkbox.
  auto blue = session.ResolveTargetByNames({"Accent Color", "Blue"});
  auto violet = session.ResolveTargetByNames({"Highlight Color", "Violet"});
  auto verbose = session.ResolveTargetByNames({"Settings", "Verbose Logging"});
  if (!blue.ok() || !violet.ok() || !verbose.ok()) {
    std::printf("resolution failed\n");
    return 1;
  }
  auto access = [](const dmi::ResolvedTarget& t) {
    dmi::VisitCommand c;
    c.target_id = t.id;
    c.entry_ref_ids = t.entry_ref_ids;
    return c;
  };
  dmi::VisitReport report =
      session.VisitParsed({access(*blue), access(*violet), access(*verbose)});
  std::printf("--- visit report ---\n%s", report.Render().c_str());
  std::printf("accent=%s highlight=%s verbose=%s\n", app.accent_color.c_str(),
              app.highlight_color.c_str(), app.verbose_logging ? "on" : "off");

  // ----- state declaration: set the log scrollbar to 75% -----------------------
  session.screen().Refresh();
  std::string label;
  if (gsim::Control* pane = session.screen().FindByTrueName("Log Pane")) {
    label = session.screen().LabelOf(*pane);
  }
  auto scroll = session.interaction().SetScrollbarPos(label, -1.0, 75.0);
  if (scroll.ok()) {
    std::printf("log pane scrolled: %s (app reports %.0f%%)\n",
                scroll->ToString().c_str(), app.log_scroll);
  }

  // The visit interface also accepts raw JSON, exactly as an LLM emits it:
  dmi::VisitReport q = session.Visit(R"([{"further_query": -1}])");
  std::printf("\nfurther_query(-1) returned %zu bytes of topology\n",
              q.further_query_text.size());
  return 0;
}
