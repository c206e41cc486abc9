// dmi_paper (no arguments): prints agentsim::BuildPaperReport() next to the
// paper's published numbers, one section per table, figure or ablation
// (DESIGN.md §3, EXPERIMENTS.md). This file only formats the report and holds
// the reference numbers. Exits 1 when a Table 1 example fails verification.
#include <cinttypes>
#include <cstdio>
#include <string>

#include "src/agent/paper_report.h"

namespace {

using agentsim::PaperReport;

constexpr const char* kBar = "================================================================";
constexpr const char* kRule = "----------------------------------------------------------------";

void PrintHeader(const char* title) { std::printf("\n%s\n%s\n%s\n", kBar, title, kBar); }
void PrintRule() { std::printf("%s\n", kRule); }

const char* Holds(bool ok) { return ok ? "holds" : "VIOLATED"; }
const char* Paths(bool unique) { return unique ? "unique" : "BROKEN"; }
const char* AppName(const agentsim::AppModel& app) { return workload::AppKindName(app.kind); }

// The paper's Table 3 SR (%), steps and time (s), in the report's row order.
constexpr struct {
  double sr, steps, time;
} kPaperTable3[] = {{44.4, 8.16, 392}, {42.0, 8.41, 353}, {74.1, 4.61, 239},
                    {23.5, 8.42, 251}, {40.7, 5.52, 140}, {17.3, 7.14, 171},
                    {23.5, 6.32, 150}, {43.2, 4.43, 167}};

void PrintTable1(const agentsim::Table1Result& t) {
  PrintHeader("Table 1: imperative GUI vs declarative DMI (task examples)");
  std::printf("Task 1 (background blue on all slides)\n");
  std::printf("  %-24s %-18s %-10s\n", "interface", "LLM-emitted steps", "verified");
  PrintRule();
  std::printf("  %-24s %-18d %-10s   (paper: 6 clicks)\n", "imperative GUI", t.gui_clicks,
              t.gui_verified ? "yes" : "NO");
  std::printf("  %-24s %-18s %-10s   (paper: 1 visit call, 3 ids)\n", "declarative DMI",
              "1 call / 3 ids", t.dmi_verified ? "yes" : "NO");
  std::printf("\nTask 2 (show the area close to the end)\n");
  std::printf("  %-24s %-18s %-10s\n", "interface", "interactions", "result");
  PrintRule();
  std::printf("  %-24s %-18.1f v=%.0f%%      (paper: iterative drag and drop)\n",
              "imperative GUI", t.drag_iterations, t.gui_scroll_percent);
  std::printf("  %-24s %-18d v=%.0f%%      (paper: set_scrollbar_pos(80%%))\n",
              "declarative DMI", 1, t.dmi_scroll_percent);
  std::printf("\nshape check: DMI uses 1 declarative call per task; GUI needs %d clicks "
              "and %.1f drag-observe iterations on average.\n",
              t.gui_clicks, t.drag_iterations);
}

void PrintFig4(const PaperReport& r) {
  PrintHeader(
      "Figure 4: graph vs naive clone tree vs cost-based forest\n"
      "(declared ids per access = target id + entry refs; paper: tree needs one id\n"
      " but explodes; forest needs <=2 ids with linear size)");
  std::printf("  %-12s %9s %9s %14s %9s %7s %7s %8s %9s\n", "topology", "nodes", "edges",
              "naive-clone", "forest", "shared", "refs", "ids/acc", "paths");
  PrintRule();
  for (const agentsim::TopologyRow& row : r.fig4) {
    std::printf("  %-12s %9zu %9zu %14" PRIu64 " %9zu %7zu %7zu %8.2f %9s\n", row.name.c_str(),
                row.nodes, row.edges, row.naive_clone, row.forest.nodes, row.forest.shared,
                row.forest.references, row.forest.ids_per_access,
                Paths(row.forest.unique_paths));
  }
  std::printf("\nshape check: the forest column stays within ~1.1x of the graph while\n"
              "naive cloning multiplies nodes; every access path is unique.\n");
}

void PrintS52(const PaperReport& r) {
  PrintHeader("Section 5.2: offline phase — UI navigation modeling cost");
  std::printf("  %-10s %8s %8s %7s %7s %8s %7s %6s %9s %10s\n", "app", "raw", "edges",
              "merges", "cycles", "forest", "shared", "refs", "core", "core-tok");
  PrintRule();
  for (const agentsim::AppModel& app : r.apps) {
    const dmi::ModelingStats& s = app.stats;
    std::printf("  %-10s %8zu %8zu %7zu %7zu %8zu %7zu %6zu %9zu %10zu\n", AppName(app),
                s.raw.nodes, s.raw.edges, s.raw.merge_nodes, s.back_edges_removed,
                s.forest_nodes, s.shared_subtrees, s.references, s.core_nodes, s.core_tokens);
  }
  std::printf("  (paper: raw >4K controls/app; cores Excel~2K, Word~1K, PPoint~1K)\n");
  std::printf("\nModeling cost (simulated UIA latencies: 120ms/click, 80ms/capture):\n");
  std::printf("  %-10s %9s %9s %9s %10s %9s %12s\n", "app", "clicks", "captures", "explored",
              "contexts", "cache-hit", "wall-time");
  PrintRule();
  for (const agentsim::AppModel& app : r.apps) {
    const ripper::RipStats& s = app.stats.rip;
    std::printf("  %-10s %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %10" PRIu64
                " %8.1f%% %9.1f min\n",
                AppName(app), s.clicks, s.captures, s.explored, s.contexts,
                100.0 * s.CaptureHitRate(), s.simulated_ms / 60000.0);
  }
  std::printf("  (paper: automated modeling < 3 hours per application)\n");
  std::printf("\nAccess blocklist ablation (WordSim):\n");
  PrintRule();
  const ripper::RipStats& with = r.apps.front().stats.rip;
  const ripper::RipStats& without = r.word_without_blocklist;
  std::printf("  with blocklist:    %3" PRIu64 " external recoveries, %8.1f min simulated\n",
              with.external_recoveries, with.simulated_ms / 60000.0);
  std::printf("  without blocklist: %3" PRIu64 " external recoveries, %8.1f min simulated\n",
              without.external_recoveries, without.simulated_ms / 60000.0);
  std::printf("\nshape check: raw graphs in the thousands with merge nodes and cycles;\n"
              "cores an order of magnitude smaller; modeling well under 3 hours.\n");
}

void PrintTable3(const PaperReport& r) {
  PrintHeader("Table 3: results across interfaces and models");
  std::printf("  %-10s %-11s %-10s %-9s | %6s %6s %8s | %6s %6s %8s\n", "interface",
              "knowledge", "model", "reasoning", "SR%", "steps", "time(s)", "SR%*", "steps*",
              "time(s)*");
  std::printf("  %74s (* = paper)\n", "");
  PrintRule();
  for (size_t i = 0; i < r.table3.size(); ++i) {
    const agentsim::SettingRow& row = r.table3[i];
    std::printf("  %-10s %-11s %-10s %-9s | %6.1f %6.2f %8.0f | %6.1f %6.2f %8.0f\n",
                row.label, row.knowledge, row.profile_model.c_str(),
                row.profile_reasoning.c_str(), 100.0 * row.summary.success_rate,
                row.summary.steps, row.summary.time_s, kPaperTable3[i].sr,
                kPaperTable3[i].steps, kPaperTable3[i].time);
    if (i == 2 || i == 4) {
      PrintRule();
    }
  }
  std::printf("\nshape check: within each model tier, GUI+DMI raises SR (paper: 1.67x for\n"
              "GPT-5 medium), cuts steps by ~40%% and completion time by ~35-45%%; the\n"
              "forest-as-knowledge row changes little for the strong model but helps the\n"
              "small one.\n");

  PrintHeader("Figure 5a: success rate by interface and model");
  for (const agentsim::SettingRow& row : r.table3) {
    const double sr = 100.0 * row.summary.success_rate;
    std::printf("  %-10s %-11s %-18s %5.1f%% |%s\n", row.label, row.knowledge,
                (row.profile_model + " " + row.profile_reasoning).c_str(), sr,
                std::string(static_cast<size_t>(sr / 2.0), '#').c_str());
  }
  std::printf("\nshape check: the GUI+DMI bar dominates within every model tier.\n");
}

void PrintFig5b(const agentsim::StepAnalysis& a, int dmi_successes) {
  PrintHeader("Figure 5b: steps, normalized steps, one-shot completion");
  std::printf("Normalized steps on the %zu-task intersection (paper: 7.94 / 8.58 / 4.60):\n",
              a.intersection);
  PrintRule();
  std::printf("  %-18s %6.2f\n  %-18s %6.2f\n  %-18s %6.2f\n", "GUI-only", a.gui_steps,
              "Ablation(forest)", a.forest_steps, "GUI+DMI", a.dmi_steps);
  std::printf("\nGUI+DMI core-call distribution over %d successful trials:\n",
              dmi_successes);
  PrintRule();
  for (const auto& [core, n] : a.dmi_core_calls) {
    std::printf("  %d core call%s (= %d total steps): %3d trials  %s\n", core,
                core == 1 ? " " : "s", core + agentsim::kFrameworkOverheadSteps, n,
                std::string(static_cast<size_t>(n), '#').c_str());
  }
  std::printf("\nOne-shot completion (<= 4 steps): %.1f%% of successful DMI trials "
              "(paper: > 61%%)\n",
              100.0 * a.one_shot_share);
  std::printf("\nAlso: every task solvable by GUI-only remains solvable with GUI+DMI: "
              "%s (paper: holds)\n",
              Holds(a.gui_solvable_stays_solvable));
}

void PrintS54(const PaperReport& r) {
  PrintHeader("Section 5.4: context-token overhead");
  std::printf("Per-control and per-app topology token costs:\n");
  std::printf("  %-10s %10s %10s %12s %14s\n", "app", "core-ctrl", "core-tok", "tok/control",
              "full-topology");
  PrintRule();
  for (const agentsim::AppModel& app : r.apps) {
    std::printf("  %-10s %10zu %10zu %12.1f %14zu\n", AppName(app), app.stats.core_nodes,
                app.stats.core_tokens, app.tokens_per_control, app.stats.full_tokens);
  }
  std::printf("  (paper: ~15 tokens/control; cores ~30K/15K/15K tokens)\n");
  std::printf("\nPer-task token totals, successful runs (GPT-5 medium):\n");
  PrintRule();
  for (size_t i : {0, 2}) {  // GUI-only and GUI+DMI at GPT-5 medium
    const agentsim::SettingRow& row = r.table3[i];
    const agentsim::SuiteSummary& s = row.summary;
    std::printf("  %-10s prompt=%8.0f total=%8.0f per-call=%6.0f steps=%5.2f\n", row.label,
                s.prompt_tokens, s.total_tokens, s.prompt_per_call, s.steps);
  }
  std::printf("\nshape check: DMI's per-call prompt is larger (it carries the forest), but\n"
              "fewer rounds keep its total usage lower (paper: lower): %s\n",
              Holds(r.dmi_fewer_tokens));
}

void PrintS55(const PaperReport& r) {
  PrintHeader("Section 5.5: ablation — interface vs static knowledge");
  const char* const labels[] = {"GUI-only", "GUI-only + forest", "GUI+DMI (full)"};
  for (size_t first : {0, 5}) {  // the GPT-5 and GPT-5-mini rows
    std::printf("%sGPT-5%s (medium reasoning):\n", first ? "\n" : "", first ? "-mini" : "");
    std::printf("  %-22s %7s %7s\n", "setting", "SR", "steps");
    PrintRule();
    for (size_t k = 0; k < 3; ++k) {
      const agentsim::SuiteSummary& s = r.table3[first + k].summary;
      std::printf("  %-22s %6.1f%% %7.2f   | paper: %5.1f%% %6.2f\n", labels[k],
                  100.0 * s.success_rate, s.steps, kPaperTable3[first + k].sr,
                  kPaperTable3[first + k].steps);
    }
  }
  std::printf("\nshape check: forest-as-knowledge barely moves the strong model but helps\n"
              "the small one; the full declarative interface dominates both — the\n"
              "interface design, not the static knowledge, is the performance driver.\n");
}

void PrintFailures(const char* label, const agentsim::FailureBreakdown& b) {
  std::printf("\n%s: %d failures over %d runs\n", label, b.failures, b.runs);
  PrintRule();
  for (const auto& [cause, n] : b.causes) {
    std::printf("  [%9s] %-45s %3d  (%4.1f%%)\n",
                agentsim::IsPolicyFailure(cause) ? "policy" : "mechanism",
                std::string(agentsim::FailureCauseName(cause)).c_str(), n,
                100.0 * n / b.failures);
  }
  if (b.failures > 0) {
    std::printf("  policy: %.1f%%   mechanism: %.1f%%\n", 100.0 * b.policy / b.failures,
                100.0 * b.mechanism / b.failures);
  }
}

void PrintAblations(const PaperReport& r) {
  PrintHeader("Ablation: externalization threshold sweep (context vs declared ids)");
  for (const agentsim::TopologyRow& app : r.fig4) {
    if (app.sweep.empty()) {
      continue;
    }
    std::printf("\n%s (DAG %zu nodes, naive clone %" PRIu64 " nodes):\n", app.name.c_str(),
                app.dag_nodes, app.naive_clone);
    std::printf("  %10s %9s %8s %6s %12s %7s\n", "threshold", "forest", "shared", "refs",
                "avg ids/acc", "paths");
    PrintRule();
    for (const auto& [threshold, f] : app.sweep) {
      std::printf("  %10" PRIu64 " %9zu %8zu %6zu %12.3f %7s\n", threshold, f.nodes, f.shared,
                  f.references, f.ids_per_access, Paths(f.unique_paths));
    }
  }
  std::printf("\nshape check: low thresholds externalize aggressively (more refs, smaller\n"
              "forest); huge thresholds converge to naive cloning. The default (24)\n"
              "keeps the forest near the DAG size with ~1 entry ref per shared access.\n");

  PrintHeader("Ablation: DMI robustness mechanisms under instability");
  std::printf("  %-22s %10s %10s %10s\n", "executor variant", "none", "typical", "harsh");
  PrintRule();
  for (const agentsim::RobustnessRow& row : r.robustness) {
    std::printf("  %-22s", row.variant);
    for (const auto& [level, s] : row.cells) {
      std::printf(" %5.1f%%/%4.1f", 100.0 * s.success_rate, s.ui_actions);
    }
    std::printf("\n");
  }
  std::printf("  (cells: success rate / avg executed UI actions per successful run)\n");
  std::printf("\nshape check: fuzzy matching carries most of the SR robustness under\n"
              "name-variation hazards; retries absorb slow loads; the non-leaf filter\n"
              "mostly prevents wasted actions from slipped navigation commands (compare\n"
              "the action column) and guards against stray state disruption.\n");

  PrintHeader("Ablation: fault domains vs. the robustness layer");
  std::printf("  %-10s %8s %8s %10s %10s %10s %10s\n", "preset", "SR", "steps", "clk-retry",
              "ix-retry", "ddl-skip", "faults");
  PrintRule();
  for (const agentsim::PresetRow& row : r.presets) {
    std::printf("  %-10s %7.1f%% %8.2f %10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64
                "\n",
                row.policy, 100.0 * row.summary.success_rate, row.summary.steps,
                row.click_retries, row.interaction_retries, row.deadline_skips, row.faults);
  }
  std::printf("  (SR is exact for a fixed seed; the injected fault domains only fire\n"
              "   at the hostile preset, where retries + the per-run deadline keep the\n"
              "   suite degrading gracefully instead of crashing or hanging)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  const PaperReport report = agentsim::BuildPaperReport();
  PrintTable1(report.table1);
  PrintFig4(report);
  PrintS52(report);
  PrintTable3(report);  // and Figure 5a
  PrintFig5b(report.fig5b, report.table3[2].summary.successes);
  PrintS54(report);
  PrintS55(report);
  PrintHeader("Figure 6: failure-cause distribution (GPT-5 medium)");
  PrintFailures("GUI-only baseline (paper: mechanism-dominated)", report.gui_failures);
  PrintFailures("GUI+DMI (paper: ~81% policy, ~19% mechanism)", report.dmi_failures);
  std::printf("\nshape check: DMI removes most mechanism failures (navigation, composite\n"
              "interaction, grounding), re-centering errors at the policy level.\n");
  PrintAblations(report);
  return report.table1.ok() ? 0 : 1;
}
