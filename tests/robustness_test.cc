// Property and stress tests: the DMI executor must never crash, corrupt the
// application, or return anything but a structured status — no matter what
// command stream it receives or how unstable the UI is.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/agent/dmi_agent.h"
#include "src/agent/service_adapter.h"
#include "src/agent/sim_llm.h"
#include "src/agent/task_runner.h"
#include "src/apps/word_sim.h"
#include "src/dmi/service_config.h"
#include "src/dmi/session.h"
#include "src/gui/control.h"
#include "src/gui/instability.h"
#include "src/json/json.h"
#include "src/ripper/ripper.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/support/strings.h"
#include "src/workload/tasks.h"

namespace {

const topo::NavGraph& WordGraph() {
  static const topo::NavGraph* graph = [] {
    apps::WordSim scratch;
    ripper::RipperConfig config;
    config.blocklist = {"Account", "Feedback"};
    ripper::GuiRipper rip(scratch, config);
    return new topo::NavGraph(rip.Rip());
  }();
  return *graph;
}

dmi::ModelingOptions Options() {
  dmi::ModelingOptions options;
  options.ripper_config.blocklist = {"Account", "Feedback"};
  return options;
}

// ----- fuzzed visit command streams -------------------------------------------------

class VisitFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VisitFuzz, RandomCommandStreamsNeverCrashAndAlwaysReport) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), Options()));
  support::Rng rng(GetParam());
  const int max_id = session.catalog().forest().max_id();

  for (int round = 0; round < 40; ++round) {
    std::vector<dmi::VisitCommand> commands;
    const int n = 1 + static_cast<int>(rng.NextBelow(4));
    for (int k = 0; k < n; ++k) {
      dmi::VisitCommand cmd;
      switch (rng.NextBelow(4)) {
        case 0:
          cmd.kind = dmi::VisitCommand::Kind::kAccess;
          cmd.target_id = static_cast<int>(rng.NextInRange(-5, max_id + 50));
          if (rng.Bernoulli(0.3)) {
            cmd.entry_ref_ids.push_back(static_cast<int>(rng.NextInRange(0, max_id)));
          }
          cmd.enforced = rng.Bernoulli(0.2);
          break;
        case 1:
          cmd.kind = dmi::VisitCommand::Kind::kAccessInput;
          cmd.target_id = static_cast<int>(rng.NextInRange(1, max_id));
          cmd.text = "fuzz " + std::to_string(rng.Next() % 1000);
          break;
        case 2:
          cmd.kind = dmi::VisitCommand::Kind::kShortcut;
          cmd.shortcut_key = rng.Bernoulli(0.5) ? "ENTER" : "ESC";
          break;
        default:
          cmd.kind = dmi::VisitCommand::Kind::kAccess;
          cmd.target_id = static_cast<int>(rng.NextInRange(1, max_id));
          break;
      }
      commands.push_back(std::move(cmd));
    }
    dmi::VisitReport report = session.VisitParsed(std::move(commands));
    // Every command must carry a terminal status or a filter mark.
    for (const auto& cr : report.commands) {
      if (!cr.filtered) {
        (void)cr.status.ToString();
      }
    }
    // The application must stay drivable (invariant: one open main window or
    // dialogs above it, never zero).
    ASSERT_GE(app.OpenWindows().size(), 1u);
    // Random ids may hit external-jump leaves ("Account"); the app flags the
    // state and every further command errors structurally until reset — the
    // recoverability invariant.
    if (app.in_external_state()) {
      dmi::VisitCommand probe;
      probe.kind = dmi::VisitCommand::Kind::kShortcut;
      probe.shortcut_key = "ENTER";
      dmi::VisitReport blocked = session.VisitParsed({probe});
      EXPECT_FALSE(blocked.overall.ok());
      app.ResetUiState();
      ASSERT_FALSE(app.in_external_state());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisitFuzz, ::testing::Values(1, 7, 42, 1337, 9999));

// ----- fuzzed raw JSON ------------------------------------------------------------

class JsonFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonFuzz, MutatedJsonNeverCrashesTheParserOrExecutor) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), Options()));
  support::Rng rng(GetParam());
  const std::string base =
      R"([{"id": "42"}, {"id": "7", "entry_ref_id": ["3"]}, {"shortcut_key": "ENTER"}])";
  for (int round = 0; round < 60; ++round) {
    std::string mutated = base;
    const int mutations = 1 + static_cast<int>(rng.NextBelow(6));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextInRange(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.NextInRange(32, 126)));
          break;
      }
    }
    dmi::VisitReport report = session.Visit(mutated);
    (void)report.overall.ToString();  // must always be a structured status
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Values(11, 23, 31));

// ----- instability sweep: the executor's guarantees under hazards ------------------

struct HazardCase {
  const char* name;
  gsim::InstabilityConfig config;
};

class HazardSweep : public ::testing::TestWithParam<int> {};

TEST_P(HazardSweep, BoldTaskSurvivesOrFailsStructurally) {
  static const HazardCase kCases[] = {
      {"none", gsim::InstabilityConfig::None()},
      {"typical", gsim::InstabilityConfig::Typical()},
      {"harsh", gsim::InstabilityConfig::Harsh()},
  };
  const HazardCase& hazard = kCases[GetParam()];
  int successes = 0;
  constexpr int kTrials = 15;
  for (int trial = 0; trial < kTrials; ++trial) {
    apps::WordSim app;
    gsim::InstabilityInjector injector(hazard.config, 1000 + trial);
    app.SetInstability(&injector);
    dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), Options()));
    app.SetSelection(0, 1);
    auto bold = session.ResolveTargetByNames({"Font", "Bold"});
    ASSERT_TRUE(bold.ok());
    dmi::VisitCommand cmd;
    cmd.target_id = bold->id;
    cmd.entry_ref_ids = bold->entry_ref_ids;
    dmi::VisitReport report = session.VisitParsed({cmd});
    if (report.overall.ok() && app.paragraphs()[0].fmt.bold) {
      ++successes;
    } else if (!report.overall.ok()) {
      // A failure must be structured, never silent.
      EXPECT_FALSE(report.overall.message().empty());
    }
  }
  // Even under harsh instability the robust executor lands most attempts.
  EXPECT_GE(successes, kTrials * 2 / 3) << hazard.name;
  if (std::string(hazard.name) == "none") {
    EXPECT_EQ(successes, kTrials);
  }
}

INSTANTIATE_TEST_SUITE_P(Hazards, HazardSweep, ::testing::Range(0, 3));

// ----- deep navigation property ------------------------------------------------------

TEST(NavigationProperty, ExecutorReachesSampledLeavesFromColdState) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), Options()));
  const topo::Forest& forest = session.catalog().forest();
  support::Rng rng(77);
  std::vector<int> leaves;
  for (int id : forest.AllIds()) {
    if (forest.IsLeaf(id) && forest.LocateById(id)->tree < 0) {
      leaves.push_back(id);
    }
  }
  ASSERT_GT(leaves.size(), 500u);
  int executed = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int id = leaves[rng.NextBelow(leaves.size())];
    app.ResetUiState();
    app.SetSelection(0, 0);  // many commands need a selection
    dmi::VisitCommand cmd;
    cmd.target_id = id;
    dmi::VisitReport report = session.VisitParsed({cmd});
    // Some leaves are dialog OK/Cancel buttons whose dialog is not open —
    // those legitimately report structured errors. Everything else must
    // navigate from the cold state (backward match -> forward clicks).
    if (report.overall.ok()) {
      ++executed;
    } else {
      EXPECT_FALSE(report.overall.message().empty());
    }
  }
  EXPECT_GE(executed, 24);  // the overwhelming majority reachable cold
}

// ----- golden byte-stability: Render()/ToString() on seed scenarios ---------------
//
// The structured-error redesign (ErrorDetail payloads, RenderJson) must not
// move a single byte of the legacy Render()/ToString() surfaces — agents
// parse these strings. The literals below were captured from the seed
// scenarios; any drift is a contract break, not a test to "update".

gsim::Control* FindByTrueName(gsim::Application& app, const std::string& name) {
  gsim::Control* found = nullptr;
  app.main_window().root().WalkStatic([&](gsim::Control& c) {
    if (found == nullptr && c.TrueName() == name) {
      found = &c;
    }
  });
  return found;
}

void ExpectJsonRoundTrip(const dmi::VisitReport& report) {
  const std::string rendered = report.RenderJson();
  support::Result<jsonv::Value> parsed = jsonv::Parse(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), rendered);
}

TEST(GoldenRender, PlainAccessResolvedByNames) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), Options()));
  app.SetSelection(0, 1);
  auto bold = session.ResolveTargetByNames({"Font", "Bold"});
  ASSERT_TRUE(bold.ok());
  ASSERT_EQ(bold->id, 485);  // id assignment is part of the seed contract
  dmi::VisitCommand cmd;
  cmd.target_id = bold->id;
  cmd.entry_ref_ids = bold->entry_ref_ids;
  dmi::VisitReport report = session.VisitParsed({cmd});
  EXPECT_EQ(report.Render(), "access(id=485) -> OK\n");
  EXPECT_EQ(report.overall.ToString(), "OK");
  ExpectJsonRoundTrip(report);
}

TEST(GoldenRender, BareShortcut) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), Options()));
  dmi::VisitCommand sc;
  sc.kind = dmi::VisitCommand::Kind::kShortcut;
  sc.shortcut_key = "ENTER";
  dmi::VisitReport report = session.VisitParsed({sc});
  EXPECT_EQ(report.Render(), "shortcut(ENTER) -> OK\n");
  EXPECT_EQ(report.overall.ToString(), "OK");
}

TEST(GoldenRender, UnknownIdKeepsItsMessage) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), Options()));
  const int bad = session.catalog().forest().max_id() + 17;
  ASSERT_EQ(bad, 4217);
  dmi::VisitCommand cmd;
  cmd.target_id = bad;
  dmi::VisitReport report = session.VisitParsed({cmd});
  EXPECT_EQ(report.Render(),
            "access(id=4217) -> NOT_FOUND: no control with id 4217 in the "
            "navigation topology\n");
  EXPECT_EQ(report.overall.ToString(),
            "NOT_FOUND: no control with id 4217 in the navigation topology");
}

TEST(GoldenRender, NavigationNodesStayFiltered) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), Options()));
  auto font = session.ResolveTargetByNames({"Font"});
  ASSERT_TRUE(font.ok());
  ASSERT_EQ(font->id, 27);
  dmi::VisitCommand cmd;
  cmd.target_id = font->id;
  dmi::VisitCommand sc;
  sc.kind = dmi::VisitCommand::Kind::kShortcut;
  sc.shortcut_key = "ENTER";
  dmi::VisitReport report = session.VisitParsed({cmd, sc});
  EXPECT_EQ(report.Render(),
            "access(id=27) -> filtered (navigation node; DMI handles navigation)\n"
            "shortcut(ENTER) -> filtered (navigation node; DMI handles navigation)\n");
  EXPECT_EQ(report.overall.ToString(), "OK");
  EXPECT_EQ(report.filtered_count, 2u);
  ExpectJsonRoundTrip(report);
}

// ----- regression: a failed command never replays a later shortcut ----------------

TEST(ShortcutReplay, ExecutorSkipsTheShortcutAfterAFailure) {
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), Options()));
  const int bad = session.catalog().forest().max_id() + 17;
  dmi::VisitCommand cmd;
  cmd.target_id = bad;
  dmi::VisitCommand sc;
  sc.kind = dmi::VisitCommand::Kind::kShortcut;
  sc.shortcut_key = "ENTER";
  const uint64_t before = app.stats().key_chords;
  dmi::VisitReport report = session.VisitParsed({cmd, sc});
  // Byte-stable rendering of the abort (golden), and no key chord sent.
  EXPECT_EQ(report.Render(),
            "access(id=4217) -> NOT_FOUND: no control with id 4217 in the "
            "navigation topology\n"
            "shortcut(ENTER) -> FAILED_PRECONDITION: skipped: an earlier "
            "command failed\n");
  EXPECT_EQ(report.overall.ToString(),
            "NOT_FOUND: no control with id 4217 in the navigation topology");
  EXPECT_EQ(app.stats().key_chords - before, 0u);
  // The skip is typed: FAILED_PRECONDITION with a non-retryable ErrorDetail.
  ASSERT_EQ(report.commands.size(), 2u);
  const support::Status& skipped = report.commands[1].status;
  EXPECT_EQ(skipped.code(), support::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(skipped.has_detail());
  EXPECT_FALSE(skipped.detail().retryable);
  ExpectJsonRoundTrip(report);
}

agentsim::LlmProfile PerfectProfile() {
  agentsim::LlmProfile p = agentsim::LlmProfile::Gpt5Medium();
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

TEST(ShortcutReplay, AgentRetryResumesAfterTheExecutedPrefix) {
  // Turn 1 issues [Bold + ENTER, Italic]; Italic is disabled so the batch
  // fails after the shortcut already ran. The agent's re-plan must resume
  // from the failure point — before the resume fix it replayed the whole
  // batch and the ENTER fired twice.
  apps::WordSim app;
  dmi::DmiSession session(app, dmi::CompiledModel::Compile(WordGraph(), Options()));
  app.SetSelection(0, 1);
  gsim::Control* italic = FindByTrueName(app, "Italic");
  ASSERT_NE(italic, nullptr);
  italic->SetEnabled(false);

  workload::Task task;
  task.id = "regress-resume";
  task.app = workload::AppKind::kWord;
  task.description = "bold the selection, confirm, italicize";
  workload::DmiStep step;
  step.kind = workload::DmiStep::Kind::kVisitBatch;
  workload::VisitTarget bold;
  bold.name_chain = {"Font", "Bold"};
  bold.shortcut_after = "ENTER";
  workload::VisitTarget it;
  it.name_chain = {"Font", "Italic"};
  step.targets = {bold, it};
  task.dmi_plan = {step};
  task.verify = [](gsim::Application&) { return false; };

  agentsim::SimLlm llm(PerfectProfile(), 3);
  agentsim::DmiAgent agent(agentsim::DmiAgentConfig{});
  const uint64_t before = app.stats().key_chords;
  agentsim::RunResult rr = agent.Run(task, session, llm);
  EXPECT_FALSE(rr.success);
  EXPECT_FALSE(rr.final_status.ok());
  ASSERT_TRUE(rr.final_status.has_detail());
  EXPECT_FALSE(rr.final_status.detail().retryable);  // disabled control
  // The ENTER after Bold executed exactly once across both attempts.
  EXPECT_EQ(app.stats().key_chords - before, 1u);
}

// ----- fault-domain isolation (DESIGN.md §11) -------------------------------------

TEST(FaultDomains, FreezeWindowGatesCallsUntilItLapses) {
  gsim::InstabilityConfig cfg;
  cfg.freeze_rate = 1.0;
  cfg.freeze_ticks = 5;
  gsim::InstabilityInjector injector(cfg, 42);
  EXPECT_TRUE(injector.CallHitsFreeze(10));  // triggering call times out too
  EXPECT_EQ(injector.freeze_until_tick(), 15u);
  EXPECT_TRUE(injector.CallHitsFreeze(12));  // inside the window: no new draw
  EXPECT_EQ(injector.freeze_until_tick(), 15u);

  gsim::InstabilityInjector calm(gsim::InstabilityConfig::None(), 42);
  for (uint64_t tick = 0; tick < 50; ++tick) {
    EXPECT_FALSE(calm.CallHitsFreeze(tick));
  }
  EXPECT_EQ(calm.freeze_until_tick(), 0u);
}

TEST(FaultDomains, FrozenAppTimesOutClicksWithRetryableDetail) {
  apps::WordSim app;
  gsim::InstabilityConfig cfg;
  cfg.freeze_rate = 1.0;
  cfg.freeze_ticks = 3;
  gsim::InstabilityInjector injector(cfg, 7);
  app.SetInstability(&injector);
  gsim::Control* bold = FindByTrueName(app, "Bold");
  ASSERT_NE(bold, nullptr);
  support::Status s = app.Click(*bold);
  EXPECT_EQ(s.code(), support::StatusCode::kUnavailable);
  EXPECT_NE(s.message().find("not responding"), std::string::npos);
  ASSERT_TRUE(s.has_detail());
  EXPECT_TRUE(s.detail().retryable);
  EXPECT_TRUE(support::IsRetryable(s));
}

TEST(FaultDomains, StaleReferenceBumpsTheUiGeneration) {
  apps::WordSim app;
  gsim::InstabilityConfig cfg;
  cfg.stale_ref_rate = 1.0;
  gsim::InstabilityInjector injector(cfg, 11);
  app.SetInstability(&injector);
  gsim::Control* bold = FindByTrueName(app, "Bold");
  ASSERT_NE(bold, nullptr);
  const uint64_t generation = app.ui_generation();
  support::Status s = app.Click(*bold);
  EXPECT_EQ(s.code(), support::StatusCode::kUnavailable);
  EXPECT_NE(s.message().find("stale"), std::string::npos);
  ASSERT_TRUE(s.has_detail());
  EXPECT_TRUE(s.detail().retryable);
  // The bump is what invalidates captured ids — the re-locate trigger.
  EXPECT_EQ(app.ui_generation(), generation + 1);
}

TEST(FaultDomains, TransientPatternFailureNamesTheRequiredPattern) {
  apps::WordSim app;
  gsim::InstabilityConfig cfg;
  cfg.pattern_fail_rate = 1.0;
  cfg.pattern_fail_ticks = 3;
  gsim::InstabilityInjector injector(cfg, 13);
  app.SetInstability(&injector);
  gsim::Control* bold = FindByTrueName(app, "Bold");
  ASSERT_NE(bold, nullptr);
  support::Status s = app.Click(*bold);
  EXPECT_EQ(s.code(), support::StatusCode::kUnavailable);
  ASSERT_TRUE(s.has_detail());
  EXPECT_TRUE(s.detail().retryable);
  EXPECT_EQ(s.detail().required_pattern, "TogglePattern");  // Bold toggles
  EXPECT_EQ(s.detail().control_name, "Bold");
  // The failure window has per-control state: the same control stays
  // unavailable for pattern_fail_ticks from the opening draw.
  EXPECT_TRUE(injector.PatternTransientlyUnavailable(*bold, app.current_tick()));
  EXPECT_TRUE(
      injector.PatternTransientlyUnavailable(*bold, app.current_tick() + 1));
}

TEST(FaultDomains, EventDropsAreRateGated) {
  gsim::InstabilityConfig cfg;
  cfg.event_drop_rate = 1.0;
  gsim::InstabilityInjector always(cfg, 5);
  EXPECT_TRUE(always.DropsWindowEvent());
  gsim::InstabilityInjector never(gsim::InstabilityConfig::None(), 5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(never.DropsWindowEvent());
  }
}

TEST(FaultDomains, DisabledDomainsConsumeNoRandomness) {
  // The byte-stability contract: under None/Typical/Harsh the new fault
  // domains must not draw from the RNG, so interleaving their probes leaves
  // the legacy decision stream untouched.
  apps::WordSim app;
  gsim::Control* bold = FindByTrueName(app, "Bold");
  ASSERT_NE(bold, nullptr);
  const gsim::InstabilityConfig harsh = gsim::InstabilityConfig::Harsh();
  gsim::InstabilityInjector plain(harsh, 99);
  gsim::InstabilityInjector probed(harsh, 99);
  for (uint64_t i = 0; i < 100; ++i) {
    (void)probed.ElementReferenceStale(*bold);
    (void)probed.PatternTransientlyUnavailable(*bold, i);
    (void)probed.DropsWindowEvent();
    (void)probed.CallHitsFreeze(i);
    EXPECT_EQ(plain.ClickSilentlyFails(*bold), probed.ClickSilentlyFails(*bold));
    EXPECT_EQ(plain.PopupRevealDelay(*bold), probed.PopupRevealDelay(*bold));
  }
}

TEST(FaultDomains, HostileDrawsAreSeedDeterministic) {
  apps::WordSim app;
  gsim::Control* bold = FindByTrueName(app, "Bold");
  ASSERT_NE(bold, nullptr);
  const gsim::InstabilityConfig hostile = gsim::InstabilityConfig::Hostile();
  gsim::InstabilityInjector a(hostile, 4242);
  gsim::InstabilityInjector b(hostile, 4242);
  for (uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(a.ElementReferenceStale(*bold), b.ElementReferenceStale(*bold));
    EXPECT_EQ(a.PatternTransientlyUnavailable(*bold, i),
              b.PatternTransientlyUnavailable(*bold, i));
    EXPECT_EQ(a.DropsWindowEvent(), b.DropsWindowEvent());
    EXPECT_EQ(a.CallHitsFreeze(i), b.CallHitsFreeze(i));
    EXPECT_EQ(a.ClickSilentlyFails(*bold), b.ClickSilentlyFails(*bold));
  }
  EXPECT_EQ(a.freeze_until_tick(), b.freeze_until_tick());
}

// ----- hostile end-to-end: the acceptance gate of DESIGN.md §11 -------------------

// The runner models all three apps once; share it across the suite tests in
// this binary (each gtest_discover_tests entry is its own process).
agentsim::TaskRunner& Runner() {
  static agentsim::TaskRunner* runner = new agentsim::TaskRunner();
  return *runner;
}

TEST(HostileSuite, FullSuiteCompletesWithStructuredFailures) {
  dmi::ServiceConfig service;
  service.mode = "dmi";
  service.seed = 21;
  service.repeats = 1;
  service.policy = "hostile";
  const auto tasks = workload::BuildOsworldWSuite();
  agentsim::SuiteResult result =
      Runner().RunSuite(tasks, agentsim::RunConfigFromService(service));
  EXPECT_EQ(result.TotalRuns(), static_cast<int>(tasks.size()));
  for (const auto& record : result.records) {
    for (const auto& run : record.runs) {
      if (run.success) {
        EXPECT_TRUE(run.final_status.ok()) << record.task_id;
        continue;
      }
      // Every failure is a typed status with a populated ErrorDetail — the
      // structured-error API's end-to-end guarantee.
      EXPECT_FALSE(run.final_status.ok()) << record.task_id;
      EXPECT_TRUE(run.final_status.has_detail()) << record.task_id << ": "
          << run.final_status.ToString();
      EXPECT_FALSE(run.final_status.message().empty()) << record.task_id;
    }
  }
  // Hostile is survivable: the retry machinery keeps most tasks landing.
  EXPECT_GT(result.SuccessRate(), 0.4);
}

TEST(HostileSuite, SerialParallelAndPooledUnpooledRunsAgree) {
  // Determinism under injection: trial seeds are derived from (task, trial),
  // injectors and retry RNGs from the trial seed, so worker count and app
  // pooling must not move a single field of any run.
  std::vector<workload::Task> tasks;
  const auto suite = workload::BuildOsworldWSuite();
  for (size_t i = 0; i < suite.size(); i += 3) {
    tasks.push_back(suite[i]);  // every third task: all three apps, 9 tasks
  }
  dmi::ServiceConfig service;
  service.mode = "dmi";
  service.seed = 77;
  service.repeats = 2;
  service.policy = "hostile";
  service.workers = 1;
  const agentsim::RunConfig base = agentsim::RunConfigFromService(service);

  service.workers = 4;
  const agentsim::RunConfig parallel = agentsim::RunConfigFromService(service);
  agentsim::RunConfig unpooled = base;
  unpooled.pool_apps = false;

  const agentsim::SuiteResult serial_r = Runner().RunSuite(tasks, base);
  const agentsim::SuiteResult parallel_r = Runner().RunSuite(tasks, parallel);
  const agentsim::SuiteResult unpooled_r = Runner().RunSuite(tasks, unpooled);

  auto expect_same = [](const agentsim::SuiteResult& a,
                        const agentsim::SuiteResult& b, const char* label) {
    ASSERT_EQ(a.records.size(), b.records.size()) << label;
    for (size_t t = 0; t < a.records.size(); ++t) {
      ASSERT_EQ(a.records[t].runs.size(), b.records[t].runs.size()) << label;
      for (size_t r = 0; r < a.records[t].runs.size(); ++r) {
        const agentsim::RunResult& x = a.records[t].runs[r];
        const agentsim::RunResult& y = b.records[t].runs[r];
        const std::string where =
            std::string(label) + ": " + a.records[t].task_id + " run " +
            std::to_string(r);
        EXPECT_EQ(x.success, y.success) << where;
        EXPECT_EQ(x.llm_calls, y.llm_calls) << where;
        EXPECT_EQ(x.core_calls, y.core_calls) << where;
        EXPECT_EQ(x.sim_time_s, y.sim_time_s) << where;
        EXPECT_EQ(x.ui_actions, y.ui_actions) << where;
        EXPECT_EQ(x.cause, y.cause) << where;
        EXPECT_EQ(x.final_status, y.final_status) << where;  // code + message
      }
    }
  };
  expect_same(serial_r, parallel_r, "serial==parallel");
  expect_same(serial_r, unpooled_r, "pooled==unpooled");
}

}  // namespace
