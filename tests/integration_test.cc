#include <gtest/gtest.h>

#include "src/agent/dmi_agent.h"
#include "src/agent/task_runner.h"
#include "src/apps/word_sim.h"
#include "src/dmi/session.h"
#include "src/ripper/ripper.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"
#include "src/uia/tree.h"

namespace {

dmi::ModelingOptions WordOptions() {
  return agentsim::TaskRunner::DefaultModelingOptions(workload::AppKind::kWord);
}

// One modeled Word graph shared within a test process.
const topo::NavGraph& WordGraph() {
  static const topo::NavGraph* graph = [] {
    apps::WordSim scratch;
    ripper::GuiRipper rip(scratch, WordOptions().ripper_config);
    return new topo::NavGraph(rip.Rip());
  }();
  return *graph;
}

// ----- §6 dynamic rename: the topology hazard no offline model captures ----------

TEST(DynamicRenameTest, SpecialFindTextRenamesButton) {
  apps::WordSim app;
  gsim::Control* replace = static_cast<gsim::Control*>(
      uia::FindByName(app.main_window().root(), "Replace"));
  ASSERT_TRUE(app.Click(*replace).ok());
  gsim::Control* find_edit = static_cast<gsim::Control*>(
      uia::FindByName(app.TopWindow()->root(), "Find what"));
  ASSERT_TRUE(app.Click(*find_edit).ok());
  ASSERT_TRUE(app.TypeText("+2").ok());
  EXPECT_EQ(uia::FindByName(app.TopWindow()->root(), "Find Next"), nullptr);
  EXPECT_NE(uia::FindByName(app.TopWindow()->root(), "Go To"), nullptr);
  // And it reverts when the text is ordinary again.
  ASSERT_TRUE(app.TypeText("hello").ok());
  EXPECT_NE(uia::FindByName(app.TopWindow()->root(), "Find Next"), nullptr);
}

TEST(DynamicRenameTest, VisitOnRenamedControlGivesStructuredMiss) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), WordOptions()));
  auto find_next = session.ResolveTargetByNames({"Find and Replace", "Find Next"});
  ASSERT_TRUE(find_next.ok());
  auto find_edit = session.ResolveTargetByNames({"Find and Replace", "Find what"});
  ASSERT_TRUE(find_edit.ok());

  // Type the special "+1" (renames the button), then declare Find Next.
  dmi::VisitCommand type_cmd;
  type_cmd.kind = dmi::VisitCommand::Kind::kAccessInput;
  type_cmd.target_id = find_edit->id;
  type_cmd.entry_ref_ids = find_edit->entry_ref_ids;
  type_cmd.text = "+1";
  dmi::VisitCommand click_cmd;
  click_cmd.target_id = find_next->id;
  click_cmd.entry_ref_ids = find_next->entry_ref_ids;
  dmi::VisitReport report = session.VisitParsed({type_cmd, click_cmd});
  // The model says "Find Next"; the live UI says "Go To": fuzzy matching
  // cannot bridge a full rename, so the executor surfaces a structured miss
  // the LLM can react to (paper §6 "(In)accurate navigation topology").
  EXPECT_FALSE(report.overall.ok());
  EXPECT_EQ(report.overall.code(), support::StatusCode::kNotFound);
  EXPECT_NE(report.overall.message().find("Find Next"), std::string::npos);
}

// ----- observability through the session -------------------------------------------

TEST(ObservabilityTest, VisitEmitsNestedSpansAndFastPathCounters) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), WordOptions()));
  app.SetSelection(0, 0);
  auto bold = session.ResolveTargetByNames({"Font", "Bold"});
  ASSERT_TRUE(bold.ok());

  support::TraceRecorder::Global().Discard();
  support::TraceRecorder::Global().SetEnabled(true);
  const support::MetricsSnapshot before = support::MetricsRegistry::Global().Snapshot();
  dmi::VisitCommand cmd;
  cmd.target_id = bold->id;
  cmd.entry_ref_ids = bold->entry_ref_ids;
  dmi::VisitReport report = session.VisitParsed({cmd});
  const support::MetricsSnapshot after = support::MetricsRegistry::Global().Snapshot();
  support::TraceRecorder::Global().SetEnabled(false);
  std::vector<support::TraceEvent> events = support::TraceRecorder::Global().Drain();
  ASSERT_TRUE(report.overall.ok()) << report.Render();

  // One visit.execute span covering a nested visit.navigate on the same thread.
  const support::TraceEvent* execute = nullptr;
  const support::TraceEvent* navigate = nullptr;
  for (const support::TraceEvent& e : events) {
    if (e.name == "visit.execute" && execute == nullptr) {
      execute = &e;
    } else if (e.name == "visit.navigate" && navigate == nullptr) {
      navigate = &e;
    }
  }
  ASSERT_NE(execute, nullptr);
  ASSERT_NE(navigate, nullptr);
  EXPECT_EQ(execute->category, "visit");
  EXPECT_EQ(execute->tid, navigate->tid);
  EXPECT_LT(execute->depth, navigate->depth);
  EXPECT_LE(execute->start_us, navigate->start_us);
  EXPECT_GE(execute->start_us + execute->dur_us, navigate->start_us + navigate->dur_us);

  // The visit fed the registry: one call with its one command. Bold is on
  // screen with its modeled id, so the backward match hits the exact-id probe
  // and no fuzzy fallback runs; the forward click asks for Bold again at the
  // same UI generation and is served by the executor's memo.
  auto delta = [&before, &after](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_EQ(delta("visit.calls"), 1u);
  EXPECT_EQ(delta("visit.commands"), 1u);
  EXPECT_EQ(delta("visit.locate_fast_path"), 1u);
  EXPECT_EQ(delta("visit.locate_memo_hits"), 1u);
  EXPECT_EQ(delta("visit.locate_fallback_walks"), 0u);
  const support::HistogramSnapshot* execute_ms = after.FindHistogram("visit.execute_ms");
  ASSERT_NE(execute_ms, nullptr);
  EXPECT_GE(execute_ms->count, 1u);
}

// ----- enforced access through the JSON surface -----------------------------------

TEST(EnforcedTest, JsonEnforcedBypassesFilter) {
  auto cmds = dmi::ParseVisitCommands(R"([{"id": "7", "enforced": true}])");
  ASSERT_TRUE(cmds.ok());
  EXPECT_TRUE((*cmds)[0].enforced);
  EXPECT_NE((*cmds)[0].ToString().find("enforced"), std::string::npos);
  auto plain = dmi::ParseVisitCommands(R"([{"id": "7"}])");
  EXPECT_FALSE((*plain)[0].enforced);
}

TEST(EnforcedTest, EnforcedNavigationNodeExecutes) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), WordOptions()));
  // "Underline" is a navigation node (its menu has children).
  auto underline = session.ResolveTargetByNames({"Font", "Underline"});
  ASSERT_TRUE(underline.ok());
  dmi::VisitCommand cmd;
  cmd.target_id = underline->id;
  cmd.enforced = true;
  dmi::VisitReport report = session.VisitParsed({cmd});
  EXPECT_TRUE(report.overall.ok()) << report.Render();
  EXPECT_EQ(report.filtered_count, 0u);
  // The menu actually opened.
  gsim::Control* host = static_cast<gsim::Control*>(
      uia::FindByName(app.main_window().root(), "Underline"));
  EXPECT_TRUE(host->popup_open());
}

// ----- GUI fallback (the §6 slow path) ----------------------------------------------

TEST(FallbackTest, DmiAgentRunsGuiFallbackSlice) {
  // A synthetic task whose DMI plan is entirely a GUI fallback over its
  // imperative plan: toggle Bold via raw clicks.
  workload::Task task;
  task.id = "FB1";
  task.app = workload::AppKind::kWord;
  task.description = "fallback: bold the selection imperatively";
  workload::GuiAction click;
  click.kind = workload::GuiAction::Kind::kClick;
  click.target = "Bold";
  click.functional = true;
  task.gui_plan = {click};
  workload::DmiStep fb;
  fb.kind = workload::DmiStep::Kind::kGuiFallback;
  fb.gui_fallback_begin = 0;
  fb.gui_fallback_end = 1;
  task.dmi_plan = {fb};
  task.verify = [](gsim::Application& a) {
    return static_cast<apps::WordSim&>(a).paragraphs()[0].fmt.bold;
  };
  task.make_app = [] { return std::make_unique<apps::WordSim>(); };

  apps::WordSim app;
  app.SetSelection(0, 0);
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), WordOptions()));
  agentsim::LlmProfile perfect = agentsim::LlmProfile::Gpt5Medium();
  perfect.nav_slip = 0;
  perfect.semantic_error_dmi = 0;
  perfect.dmi_residual_mechanism = 0;
  perfect.topology_fail = 0;
  agentsim::SimLlm llm(perfect, 11);
  agentsim::DmiAgent agent(agentsim::DmiAgentConfig{});
  agentsim::RunResult r = agent.Run(task, session, llm);
  EXPECT_TRUE(r.success) << agentsim::FailureCauseName(r.cause);
  EXPECT_GE(r.ui_actions, 1u);
}

// ----- name resolution properties ---------------------------------------------------

TEST(ResolutionTest, ResolvedPathsAreValidForSampledLeaves) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), WordOptions()));
  const topo::Forest& forest = session.catalog().forest();
  const topo::NavGraph& dag = session.catalog().dag();
  int checked = 0;
  for (int id : forest.AllIds()) {
    if (checked >= 200) {
      break;
    }
    if (!forest.IsLeaf(id)) {
      continue;
    }
    const topo::TreeNode* node = forest.FindById(id);
    const std::string& name = dag.node(node->graph_index).name;
    if (name.empty()) {
      continue;
    }
    auto resolved = session.ResolveTargetByNames({name});
    // The single-name chain must resolve to SOME control with that name
    // (possibly a shorter path than this particular id).
    ASSERT_TRUE(resolved.ok()) << name;
    auto path = forest.ResolvePath(resolved->id, resolved->entry_ref_ids);
    ASSERT_TRUE(path.ok()) << name;
    EXPECT_EQ(dag.node(path->back()).name, name);
    ++checked;
  }
  EXPECT_GE(checked, 100);
}

TEST(ResolutionTest, UnknownChainGivesNotFound) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), WordOptions()));
  EXPECT_EQ(session.ResolveTargetByNames({"No Such Control Anywhere"}).status().code(),
            support::StatusCode::kNotFound);
  EXPECT_EQ(session.ResolveTargetByNames({}).status().code(),
            support::StatusCode::kInvalidArgument);
}

}  // namespace
