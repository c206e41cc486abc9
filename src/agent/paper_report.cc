#include "src/agent/paper_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "src/agent/service_adapter.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/dmi/interaction.h"
#include "src/dmi/service_config.h"
#include "src/dmi/session.h"
#include "src/gui/application.h"
#include "src/gui/input.h"
#include "src/gui/screen.h"
#include "src/support/metrics.h"
#include "src/support/rng.h"
#include "src/topology/transform.h"
#include "src/topology/validate.h"
#include "src/uia/tree.h"

namespace agentsim {
namespace {

// The settings are built in code, so an invalid one is a bug.
RunConfig Resolve(const dmi::ServiceConfig& service) {
  const support::Status valid = service.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid paper setting: %s\n", valid.message().c_str());
    std::abort();
  }
  return RunConfigFromService(service);
}

SuiteSummary Summarize(const SuiteResult& suite) {
  SuiteSummary s;
  s.runs = suite.TotalRuns();
  s.successes = s.runs - suite.FailedRuns();
  s.success_rate = suite.SuccessRate();
  s.steps = suite.AvgStepsSuccessful();
  s.time_s = suite.AvgTimeSuccessful();
  s.prompt_tokens = suite.AvgPromptTokensSuccessful();
  s.total_tokens = suite.AvgTotalTokensSuccessful();
  s.prompt_per_call = s.steps > 0 ? s.prompt_tokens / s.steps : 0.0;
  s.ui_actions = suite.AvgUiActionsSuccessful();
  return s;
}

bool AllSlidesBlue(const apps::PpointSim& app) {
  bool blue = true;
  for (const auto& slide : app.slides()) {
    blue &= slide.background_color == "Blue" && slide.background_solid;
  }
  return blue;
}

Table1Result RunTable1(const std::shared_ptr<const dmi::CompiledModel>& ppoint_model) {
  Table1Result t;
  apps::PpointSim gui_app;
  for (const char* name : {"Design", "Format Background", "Solid fill", "Fill Color", "Blue",
                           "Apply to All"}) {
    auto* c = static_cast<gsim::Control*>(uia::FindByName(gui_app.main_window().root(), name));
    if (c == nullptr || !gui_app.Click(*c).ok()) {
      break;
    }
    ++t.gui_clicks;
  }
  t.gui_verified = t.gui_clicks == 6 && AllSlidesBlue(gui_app);

  apps::PpointSim dmi_app;
  dmi::DmiSession session(dmi_app, ppoint_model);
  std::vector<dmi::VisitCommand> commands;
  for (const std::vector<std::string>& names :
       {std::vector<std::string>{"Format Background Pane", "Solid fill"},
        {"Fill Color", "Blue"},
        {"Format Background Pane", "Apply to All"}}) {
    if (auto target = session.ResolveTargetByNames(names); target.ok()) {
      commands.emplace_back();  // an access command
      commands.back().target_id = target->id;
      commands.back().entry_ref_ids = target->entry_ref_ids;
    }
  }
  t.dmi_verified = commands.size() == 3 && session.VisitParsed(commands).overall.ok() &&
                   AllSlidesBlue(dmi_app);

  // Each drag-observe iteration is one LLM round trip that misperceives the
  // current position, drags by the perceived delta and over- or undershoots.
  constexpr int kSeeds = 50;
  double iterations = 0;
  double final_pos = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    apps::PpointSim app;
    gsim::ScreenView screen(app);
    screen.Refresh();
    gsim::InputDriver input(app, screen, nullptr);
    support::Rng rng(static_cast<uint64_t>(seed) + 7);
    auto* sp = uia::PatternCast<uia::ScrollPattern>(*app.slide_view_control());
    int it = 0;
    while (std::abs(sp->VerticalPercent() - 80.0) > 8.0 && it < 10) {
      const double perceived = rng.Gaussian(sp->VerticalPercent(), 9.0);
      const double delta = (80.0 - perceived) * rng.Gaussian(1.0, 0.25);
      (void)input.DragScrollThumb(*app.slide_view_control(), true, delta);
      ++it;
    }
    iterations += it;
    final_pos += app.view_scroll_percent();
  }
  t.drag_iterations = iterations / kSeeds;
  t.gui_scroll_percent = final_pos / kSeeds;
  apps::PpointSim app;
  gsim::ScreenView screen(app);
  screen.Refresh();
  dmi::InteractionInterfaces ix(app, screen);
  t.dmi_scroll_ok = ix.SetScrollbarPos(screen.LabelOf(*app.slide_view_control()), -1, 80.0).ok();
  t.dmi_scroll_percent = app.view_scroll_percent();
  return t;
}

ForestMeasure MeasureAt(const topo::NavGraph& dag, uint64_t threshold) {
  const topo::Forest forest = topo::SelectiveExternalize(dag, threshold);
  ForestMeasure m{forest.total_nodes(), forest.shared().size(), forest.reference_count(), 0,
                  topo::ValidateForest(dag, forest).ok};
  size_t refs = 0;
  size_t targets = 0;
  for (int id : forest.AllIds()) {
    const topo::TreeNode* n = forest.FindById(id);
    if (!n->is_reference && n->children.empty()) {
      refs += forest.LocateById(id)->tree >= 0 ? 1 : 0;
      ++targets;
    }
  }
  m.ids_per_access = targets == 0 ? 0.0 : 1.0 + static_cast<double>(refs) / targets;
  return m;
}

TopologyRow MeasureTopology(std::string name, const topo::NavGraph& graph,
                            const std::vector<uint64_t>& sweep = {}) {
  const topo::NavGraph dag = topo::Decycle(graph).dag;
  TopologyRow row{std::move(name), graph.node_count(), graph.edge_count(), dag.node_count(),
                  topo::NaiveCloneCount(dag), MeasureAt(dag, topo::kDefaultExternalizeThreshold),
                  {}};
  for (uint64_t threshold : sweep) {
    row.sweep.emplace_back(threshold, MeasureAt(dag, threshold));
  }
  return row;
}

// Button nodes named `names` (the first is index 1; 0 is the root), joined
// by `edges` (from, to).
topo::NavGraph BuildGraph(const std::vector<std::string>& names,
                          const std::vector<std::pair<int, int>>& edges) {
  topo::NavGraph g;
  for (const std::string& name : names) {
    topo::NodeInfo info;
    info.control_id = name + "|Button|fig4";
    info.name = name;
    info.type = uia::ControlType::kButton;
    g.AddNode(info);
  }
  for (const auto& [from, to] : edges) {
    g.AddEdge(from, to);
  }
  return g;
}

// Figure 4's schematic: two navigation branches merging into a shared
// substructure with further children.
topo::NavGraph Figure4Graph() {
  return BuildGraph({"1", "4", "5", "6", "7", "9", "12", "13"},
                    {{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 5}, {2, 5}, {4, 6}, {5, 6}, {6, 7},
                     {6, 8}});
}

// Thirty stacked diamonds: exponential naive blow-up, linear forest.
topo::NavGraph DiamondsGraph() {
  std::vector<std::string> names;
  std::vector<std::pair<int, int>> edges;
  int prev = 0;
  for (int layer = 0; layer < 30; ++layer) {
    const int a = prev + 1;
    for (const char* part : {"A", "B", "J"}) {
      names.push_back(part + std::to_string(layer));
    }
    edges.insert(edges.end(), {{prev, a}, {prev, a + 1}, {a, a + 2}, {a + 1, a + 2}});
    prev = a + 2;
  }
  return BuildGraph(names, edges);
}

FailureBreakdown Failures(const SuiteResult& suite) {
  FailureBreakdown b{suite.FailureDistribution(), 0, suite.TotalRuns(), 0, 0};
  for (const auto& [cause, n] : b.causes) {
    (IsPolicyFailure(cause) ? b.policy : b.mechanism) += n;
  }
  b.failures = b.policy + b.mechanism;
  return b;
}

StepAnalysis AnalyzeSteps(const SuiteResult& gui, const SuiteResult& forest,
                          const SuiteResult& dmi_row) {
  StepAnalysis a;
  // Tasks solved (majority of trials) by all three methods.
  std::set<std::string> common;
  const std::set<std::string> forest_solved = forest.SolvedTasks();
  const std::set<std::string> dmi_solved = dmi_row.SolvedTasks();
  for (const std::string& id : gui.SolvedTasks()) {
    if (forest_solved.count(id) > 0 && dmi_solved.count(id) > 0) {
      common.insert(id);
    }
  }
  a.intersection = common.size();
  a.gui_steps = gui.AvgStepsOnTasks(common);
  a.forest_steps = forest.AvgStepsOnTasks(common);
  a.dmi_steps = dmi_row.AvgStepsOnTasks(common);
  for (const TaskRecord& record : dmi_row.records) {
    for (const RunResult& run : record.runs) {
      if (run.success) {
        ++a.dmi_core_calls[run.core_calls];
      }
    }
  }
  a.one_shot_share = dmi_row.OneShotShare();
  const std::set<std::string> gui_solvable = gui.SolvableTasks();
  const std::set<std::string> dmi_solvable = dmi_row.SolvableTasks();
  a.gui_solvable_stays_solvable = std::includes(dmi_solvable.begin(), dmi_solvable.end(),
                                                gui_solvable.begin(), gui_solvable.end());
  return a;
}

}  // namespace

PaperReport BuildPaperReport() {
  PaperReport report;
  TaskRunner runner;
  const std::vector<workload::Task> tasks = workload::BuildOsworldWSuite();

  // ----- models, one rip each: Fig 4, the threshold sweep, §5.2, Table 1 ------
  report.fig4 = {MeasureTopology("figure4", Figure4Graph()),
                 MeasureTopology("diamonds30", DiamondsGraph())};
  for (workload::AppKind kind :
       {workload::AppKind::kWord, workload::AppKind::kExcel, workload::AppKind::kPpoint}) {
    const std::shared_ptr<const dmi::CompiledModel> model = runner.ModelFor(kind);
    const dmi::ModelingStats& stats = model->stats();
    gsim::StateHash graph;
    graph.Mix(model->ripped().ToJson().Dump());
    report.apps.push_back({kind, stats,
                           static_cast<double>(stats.core_tokens) /
                               static_cast<double>(stats.core_nodes),
                           graph.digest()});
    report.fig4.push_back(MeasureTopology(workload::AppKindName(kind), model->ripped(),
                                          {0, 2, 8, 24, 128, 4096, 1000000}));
  }
  {
    apps::WordSim scratch;
    ripper::GuiRipper rip(scratch, ripper::RipperConfig{});
    (void)rip.Rip();
    report.word_without_blocklist = rip.stats();
  }
  report.table1 = RunTable1(runner.ModelFor(workload::AppKind::kPpoint));

  // ----- Table 3: eight settings, 3 repeats; Fig 5b, §5.4 and Fig 6 -----------
  const struct {
    const char *label, *mode, *model, *knowledge;
  } kTable3[] = {
      {"GUI-only", "gui", "gpt5", "/"},          {"GUI-only", "forest", "gpt5", "Nav.forest"},
      {"GUI+DMI", "dmi", "gpt5", "Nav.forest"},  {"GUI-only", "gui", "gpt5min", "/"},
      {"GUI+DMI", "dmi", "gpt5min", "Nav.forest"}, {"GUI-only", "gui", "mini", "/"},
      {"GUI-only", "forest", "mini", "Nav.forest"}, {"GUI+DMI", "dmi", "mini", "Nav.forest"},
  };
  for (const auto& s : kTable3) {
    dmi::ServiceConfig service;
    service.mode = s.mode;
    service.model = s.model;
    service.repeats = 3;
    const RunConfig config = Resolve(service);
    SettingRow row{s.label, s.mode, s.model, s.knowledge, config.profile.model,
                   config.profile.reasoning, runner.RunSuite(tasks, config), {}};
    row.summary = Summarize(row.suite);
    report.table3.push_back(std::move(row));
  }
  // Fig 5b, §5.4 and Fig 6 read the GPT-5-medium rows: gui, forest, dmi.
  const SettingRow& gui = report.table3[0];
  const SettingRow& dmi_row = report.table3[2];
  report.fig5b = AnalyzeSteps(gui.suite, report.table3[1].suite, dmi_row.suite);
  report.dmi_fewer_tokens = dmi_row.summary.total_tokens < gui.summary.total_tokens;
  report.gui_failures = Failures(gui.suite);
  report.dmi_failures = Failures(dmi_row.suite);

  // ----- fault domains: the --policy presets, 2 repeats -------------------------
  // Both ablations run GUI+DMI at GPT-5 medium, ServiceConfig's defaults.
  for (const char* policy : {"none", "typical", "harsh", "hostile"}) {
    dmi::ServiceConfig service;
    service.repeats = 2;
    service.policy = policy;
    const support::MetricsSnapshot before = support::MetricsRegistry::Global().Snapshot();
    PresetRow row{policy, runner.RunSuite(tasks, Resolve(service)), {}, 0, 0, 0, 0};
    const support::MetricsSnapshot after = support::MetricsRegistry::Global().Snapshot();
    auto delta = [&](const char* name) {
      return after.CounterValue(name) - before.CounterValue(name);
    };
    row.summary = Summarize(row.suite);
    row.click_retries = delta("robust.click_retries");
    row.interaction_retries = delta("robust.interaction_retries");
    row.deadline_skips = delta("robust.deadline_skipped_commands");
    row.faults = delta("robust.fault_stale_ref") + delta("robust.fault_pattern") +
                 delta("robust.fault_event_drop") + delta("robust.fault_freeze");
    report.presets.push_back(std::move(row));
  }

  // ----- robustness: executor variants × hazard levels, 2 repeats ----------------
  const struct {
    const char* label;
    bool filter, fuzzy, retry;
  } kVariants[] = {
      {"full DMI (all on)", true, true, true},  {"no non-leaf filter", false, true, true},
      {"no fuzzy matching", true, false, true}, {"no retries", true, true, false},
      {"all off", false, false, false},
  };
  for (const auto& v : kVariants) {
    RobustnessRow row{v.label, {}};
    for (const char* level : {"none", "typical", "harsh"}) {
      dmi::ServiceConfig service;
      service.repeats = 2;
      service.instability = level;
      service.enable_nonleaf_filter = v.filter;
      service.enable_fuzzy_match = v.fuzzy;
      service.enable_retry = v.retry;
      row.cells.emplace_back(level, Summarize(runner.RunSuite(tasks, Resolve(service))));
    }
    report.robustness.push_back(std::move(row));
  }
  return report;
}

}  // namespace agentsim
