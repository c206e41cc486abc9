#include <gtest/gtest.h>

#include "src/agent/failure.h"
#include "src/agent/task_runner.h"
#include "src/apps/word_sim.h"
#include "src/dmi/session.h"
#include "src/ripper/ripper.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace {

using namespace agentsim;

LlmProfile PerfectProfile() {
  LlmProfile p = LlmProfile::Gpt5Medium();
  p.ambiguous_fail_gui = p.ambiguous_fail_dmi = 0;
  p.subtle_fail_gui = p.subtle_fail_dmi = 0;
  p.visual_semantic_gui = p.visual_semantic_dmi = 0;
  p.semantic_error_gui = p.semantic_error_dmi = 0;
  p.grounding_error = 0;
  p.drag_hard_fail = 0;
  p.text_select_offbyone = 0;
  p.nav_plan_error = 0;
  p.nav_slip = 0;
  p.topology_fail = 0;
  p.dmi_residual_mechanism = 0;
  p.drag_read_sigma = 0;
  return p;
}

// The runner models all three apps once; share it across tests in this
// binary (each gtest_discover_tests entry is its own process).
TaskRunner& Runner() {
  static TaskRunner* runner = new TaskRunner();
  return *runner;
}

// ----- failure taxonomy -----------------------------------------------------------

TEST(FailureTest, PolicyMechanismPartition) {
  for (int i = 1; i <= static_cast<int>(FailureCause::kDeadlineExceeded); ++i) {
    auto cause = static_cast<FailureCause>(i);
    EXPECT_NE(IsPolicyFailure(cause), IsMechanismFailure(cause))
        << FailureCauseName(cause);
  }
  EXPECT_FALSE(IsPolicyFailure(FailureCause::kNone));
  EXPECT_FALSE(IsMechanismFailure(FailureCause::kNone));
}

// ----- determinism ------------------------------------------------------------------

TEST(RunnerTest, SameSeedSameOutcome) {
  auto tasks = workload::BuildOsworldWSuite();
  RunConfig cfg;
  cfg.mode = InterfaceMode::kGuiPlusDmi;
  cfg.profile = LlmProfile::Gpt5Medium();
  RunResult a = Runner().RunOnce(tasks[0], cfg, 12345);
  RunResult b = Runner().RunOnce(tasks[0], cfg, 12345);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.llm_calls, b.llm_calls);
  EXPECT_DOUBLE_EQ(a.sim_time_s, b.sim_time_s);
  EXPECT_EQ(a.cause, b.cause);
}

// The residual-mechanism early exit charges a fixed call/token budget whose
// arithmetic is now spelled with named constants; this golden pins the
// pre-refactor numbers so the naming stays byte-stable: 5 calls (framework
// overhead + 2 core), 500 output tokens, and per-call prompt = session
// prompt + 200 task-overhead tokens.
TEST(RunnerTest, ResidualMechanismAccountingGolden) {
  auto tasks = workload::BuildOsworldWSuite();
  ASSERT_EQ(tasks[0].app, workload::AppKind::kWord);
  RunConfig cfg;
  cfg.mode = InterfaceMode::kGuiPlusDmi;
  cfg.profile = PerfectProfile();
  cfg.profile.dmi_residual_mechanism = 1.0;  // always take the residual branch
  // No injected hazards: the reference session below sees a pristine screen,
  // so the run's screen listing must match it token for token.
  cfg.instability = gsim::InstabilityConfig::None();
  const RunResult r = Runner().RunOnce(tasks[0], cfg, 42);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.cause == FailureCause::kNavigationError ||
              r.cause == FailureCause::kCompositeInteractionError);
  EXPECT_EQ(r.llm_calls, kFrameworkOverheadSteps + 2);
  EXPECT_EQ(r.core_calls, 2);
  EXPECT_EQ(r.output_tokens, 500u);
  // Reference prompt size from an identically-modeled session on a fresh app
  // (same pipeline the runner compiles its shared model with).
  dmi::ModelingOptions options =
      TaskRunner::DefaultModelingOptions(workload::AppKind::kWord);
  apps::WordSim scratch;
  ripper::GuiRipper rip(scratch, options.ripper_config);
  const topo::NavGraph graph = rip.Rip(options.contexts).Canonicalized();
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(graph, options));
  EXPECT_EQ(r.prompt_tokens, 5u * (session.PromptTokens() + 200u));
}

TEST(RunnerTest, ParallelSuiteMatchesSerialElementwise) {
  // RunSuite's worker count must not change any run: seeds are a pure
  // function of (suite seed, task id, trial), and every run owns its app.
  auto all = workload::BuildOsworldWSuite();
  // A slice keeps this test quick while covering all three apps.
  std::vector<workload::Task> tasks;
  for (size_t i = 0; i < all.size(); i += 4) {
    tasks.push_back(all[i]);
  }
  RunConfig cfg;
  cfg.mode = InterfaceMode::kGuiPlusDmi;
  cfg.profile = LlmProfile::Gpt5Medium();
  cfg.repeats = 2;
  cfg.workers = 1;
  SuiteResult serial = Runner().RunSuite(tasks, cfg);
  cfg.workers = 4;
  SuiteResult parallel = Runner().RunSuite(tasks, cfg);

  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].task_id, parallel.records[i].task_id);
    ASSERT_EQ(serial.records[i].runs.size(), parallel.records[i].runs.size());
    for (size_t t = 0; t < serial.records[i].runs.size(); ++t) {
      const RunResult& a = serial.records[i].runs[t];
      const RunResult& b = parallel.records[i].runs[t];
      EXPECT_EQ(a.success, b.success) << tasks[i].id << " trial " << t;
      EXPECT_EQ(a.llm_calls, b.llm_calls) << tasks[i].id << " trial " << t;
      EXPECT_DOUBLE_EQ(a.sim_time_s, b.sim_time_s) << tasks[i].id << " trial " << t;
      EXPECT_EQ(a.prompt_tokens, b.prompt_tokens) << tasks[i].id << " trial " << t;
      EXPECT_EQ(a.cause, b.cause) << tasks[i].id << " trial " << t;
    }
  }
}

TEST(RunnerTest, TracingOnKeepsSuitesIdenticalAndCountersMatchAggregates) {
  auto all = workload::BuildOsworldWSuite();
  std::vector<workload::Task> tasks;
  for (size_t i = 0; i < all.size(); i += 6) {
    tasks.push_back(all[i]);
  }
  RunConfig cfg;
  cfg.mode = InterfaceMode::kGuiPlusDmi;
  cfg.profile = LlmProfile::Gpt5Medium();
  cfg.repeats = 2;

  // Tracing on for both suites: span recording must not perturb outcomes.
  support::TraceRecorder::Global().Discard();
  support::TraceRecorder::Global().SetEnabled(true);
  const support::MetricsSnapshot before = support::MetricsRegistry::Global().Snapshot();
  cfg.workers = 1;
  SuiteResult serial = Runner().RunSuite(tasks, cfg);
  const support::MetricsSnapshot after = support::MetricsRegistry::Global().Snapshot();
  cfg.workers = 4;
  SuiteResult parallel = Runner().RunSuite(tasks, cfg);
  support::TraceRecorder::Global().SetEnabled(false);
  std::vector<support::TraceEvent> events = support::TraceRecorder::Global().Drain();

  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (size_t i = 0; i < serial.records.size(); ++i) {
    ASSERT_EQ(serial.records[i].runs.size(), parallel.records[i].runs.size());
    for (size_t t = 0; t < serial.records[i].runs.size(); ++t) {
      const RunResult& a = serial.records[i].runs[t];
      const RunResult& b = parallel.records[i].runs[t];
      EXPECT_EQ(a.success, b.success) << tasks[i].id << " trial " << t;
      EXPECT_EQ(a.llm_calls, b.llm_calls) << tasks[i].id << " trial " << t;
      EXPECT_DOUBLE_EQ(a.sim_time_s, b.sim_time_s) << tasks[i].id << " trial " << t;
      EXPECT_EQ(a.cause, b.cause) << tasks[i].id << " trial " << t;
    }
  }

  // Counter deltas across the serial suite equal the SuiteResult aggregates:
  // the registry is fed per-run in RunOnce, so sums are order-independent.
  auto delta = [&before, &after](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  const auto total_runs = static_cast<uint64_t>(serial.TotalRuns());
  const auto failed_runs = static_cast<uint64_t>(serial.FailedRuns());
  EXPECT_EQ(delta("agent.runs"), total_runs);
  EXPECT_EQ(delta("agent.failures"), failed_runs);
  EXPECT_EQ(delta("agent.successes"), total_runs - failed_runs);
  uint64_t llm_calls = 0;
  uint64_t ui_actions = 0;
  for (const TaskRecord& r : serial.records) {
    for (const RunResult& run : r.runs) {
      llm_calls += static_cast<uint64_t>(run.llm_calls);
      ui_actions += run.ui_actions;
    }
  }
  EXPECT_EQ(delta("agent.llm_calls"), llm_calls);
  EXPECT_EQ(delta("agent.ui_actions"), ui_actions);

  // Both suites were traced: one agent.run span per run, one suite span each.
  size_t run_spans = 0;
  size_t suite_spans = 0;
  for (const support::TraceEvent& e : events) {
    if (e.name == "agent.run") {
      ++run_spans;
    } else if (e.name == "agent.suite") {
      ++suite_spans;
    }
  }
  EXPECT_EQ(run_spans, static_cast<size_t>(serial.TotalRuns() + parallel.TotalRuns()));
  EXPECT_EQ(suite_spans, 2u);
}

// ----- perfect-policy ground truth ----------------------------------------------------
// Both ground-truth plans must succeed through their interface when the
// policy makes no mistakes and the UI is stable: the plans are correct.

class PerfectSweep : public ::testing::TestWithParam<int> {};

TEST_P(PerfectSweep, EveryTaskSolvableThroughBothInterfaces) {
  auto tasks = workload::BuildOsworldWSuite();
  const workload::Task& task = tasks[static_cast<size_t>(GetParam())];
  for (InterfaceMode mode : {InterfaceMode::kGuiOnly, InterfaceMode::kGuiPlusDmi}) {
    RunConfig cfg;
    cfg.mode = mode;
    cfg.profile = PerfectProfile();
    cfg.instability = gsim::InstabilityConfig::None();
    RunResult r = Runner().RunOnce(task, cfg, 7);
    EXPECT_TRUE(r.success) << task.id << " via " << InterfaceModeName(mode) << ": "
                           << FailureCauseName(r.cause);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTasks, PerfectSweep, ::testing::Range(0, 27));

// ----- framework accounting --------------------------------------------------------

TEST(RunnerTest, DmiStepsIncludeFrameworkOverhead) {
  auto tasks = workload::BuildOsworldWSuite();
  RunConfig cfg;
  cfg.mode = InterfaceMode::kGuiPlusDmi;
  cfg.profile = PerfectProfile();
  cfg.instability = gsim::InstabilityConfig::None();
  // P1 is a pure one-visit task: 3 framework steps + 1 core call = 4.
  for (const auto& t : tasks) {
    if (t.id == "P1") {
      RunResult r = Runner().RunOnce(t, cfg, 3);
      ASSERT_TRUE(r.success);
      EXPECT_EQ(r.core_calls, 1);
      EXPECT_EQ(r.llm_calls, kFrameworkOverheadSteps + 1);
    }
  }
}

TEST(RunnerTest, GuiNeedsMoreCallsThanDmiOnNavigationTask) {
  auto tasks = workload::BuildOsworldWSuite();
  RunConfig cfg;
  cfg.profile = PerfectProfile();
  cfg.instability = gsim::InstabilityConfig::None();
  for (const auto& t : tasks) {
    if (t.id != "P1") {
      continue;
    }
    cfg.mode = InterfaceMode::kGuiOnly;
    RunResult gui = Runner().RunOnce(t, cfg, 3);
    cfg.mode = InterfaceMode::kGuiPlusDmi;
    RunResult dmi = Runner().RunOnce(t, cfg, 3);
    ASSERT_TRUE(gui.success);
    ASSERT_TRUE(dmi.success);
    // The GUI path must click through Design -> Format Background -> ... with
    // visibility-limited action sequences; DMI plans globally in one call.
    EXPECT_GT(gui.llm_calls, dmi.llm_calls);
  }
}

// ----- suite-level behaviour ---------------------------------------------------------

TEST(RunnerTest, SuiteAggregatesConsistent) {
  auto tasks = workload::BuildOsworldWSuite();
  RunConfig cfg;
  cfg.mode = InterfaceMode::kGuiPlusDmi;
  cfg.profile = LlmProfile::Gpt5Medium();
  cfg.repeats = 1;
  SuiteResult r = Runner().RunSuite(tasks, cfg);
  EXPECT_EQ(r.TotalRuns(), 27);
  EXPECT_GE(r.SuccessRate(), 0.0);
  EXPECT_LE(r.SuccessRate(), 1.0);
  int fail_total = 0;
  for (const auto& [cause, n] : r.FailureDistribution()) {
    EXPECT_NE(cause, FailureCause::kNone);
    fail_total += n;
  }
  EXPECT_EQ(fail_total, r.FailedRuns());
}

TEST(RunnerTest, DmiBeatsGuiOnSuite) {
  auto tasks = workload::BuildOsworldWSuite();
  RunConfig cfg;
  cfg.profile = LlmProfile::Gpt5Medium();
  cfg.repeats = 2;
  cfg.mode = InterfaceMode::kGuiOnly;
  SuiteResult gui = Runner().RunSuite(tasks, cfg);
  cfg.mode = InterfaceMode::kGuiPlusDmi;
  SuiteResult dmi = Runner().RunSuite(tasks, cfg);
  // The headline directional claims (Table 3).
  EXPECT_GT(dmi.SuccessRate(), gui.SuccessRate());
  EXPECT_LT(dmi.AvgStepsSuccessful(), gui.AvgStepsSuccessful());
  EXPECT_GT(dmi.OneShotShare(), 0.4);
  // Failure mix shifts from mechanism to policy (Figure 6).
  int dmi_policy = 0;
  int dmi_mech = 0;
  for (const auto& [cause, n] : dmi.FailureDistribution()) {
    (IsPolicyFailure(cause) ? dmi_policy : dmi_mech) += n;
  }
  int gui_policy = 0;
  int gui_mech = 0;
  for (const auto& [cause, n] : gui.FailureDistribution()) {
    (IsPolicyFailure(cause) ? gui_policy : gui_mech) += n;
  }
  if (dmi_policy + dmi_mech > 0 && gui_policy + gui_mech > 0) {
    const double dmi_policy_share =
        static_cast<double>(dmi_policy) / (dmi_policy + dmi_mech);
    const double gui_policy_share =
        static_cast<double>(gui_policy) / (gui_policy + gui_mech);
    EXPECT_GT(dmi_policy_share, gui_policy_share);
  }
}

TEST(RunnerTest, ModelingStatsMatchPaperShape) {
  // §5.2: raw graphs in the thousands, pruned cores far smaller.
  for (auto kind : {workload::AppKind::kWord, workload::AppKind::kExcel,
                    workload::AppKind::kPpoint}) {
    const dmi::ModelingStats& s = Runner().modeling_stats(kind);
    EXPECT_GT(s.raw.nodes, 2000u) << workload::AppKindName(kind);
    EXPECT_LT(s.core_nodes, s.forest_nodes / 2) << workload::AppKindName(kind);
    EXPECT_GT(s.core_tokens, 1000u);
    EXPECT_LT(s.core_tokens, 40000u);
    // Automated modeling < 3 hours of simulated wall time (§5.2).
    EXPECT_LT(s.rip.simulated_ms, 3.0 * 3600.0 * 1000.0);
  }
}

TEST(RunnerTest, StepCapEnforced) {
  auto tasks = workload::BuildOsworldWSuite();
  LlmProfile hopeless = LlmProfile::Gpt5Medium();
  hopeless.nav_plan_error = 1.0;  // every call mis-plans: no progress
  RunConfig cfg;
  cfg.mode = InterfaceMode::kGuiOnly;
  cfg.profile = hopeless;
  RunResult r = Runner().RunOnce(tasks[0], cfg, 5);
  EXPECT_FALSE(r.success);
  EXPECT_LE(r.llm_calls, 30);
  EXPECT_EQ(r.cause, FailureCause::kStepBudgetExhausted);
}

TEST(RunnerTest, IntersectionNormalizationHelpers) {
  auto tasks = workload::BuildOsworldWSuite();
  RunConfig cfg;
  cfg.mode = InterfaceMode::kGuiPlusDmi;
  cfg.profile = PerfectProfile();
  cfg.instability = gsim::InstabilityConfig::None();
  cfg.repeats = 1;
  SuiteResult r = Runner().RunSuite(tasks, cfg);
  std::set<std::string> solved = r.SolvedTasks();
  EXPECT_EQ(solved.size(), 27u);  // perfect profile solves everything
  EXPECT_GT(r.AvgStepsOnTasks(solved), 0.0);
  EXPECT_EQ(r.AvgStepsOnTasks({}), 0.0);
}

}  // namespace
