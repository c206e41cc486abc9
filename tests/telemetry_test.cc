// Causal fleet telemetry (DESIGN.md §13): run-scoped trace propagation,
// labeled metrics, and the per-run flight recorder.
//
// The contracts pinned here:
//   - Drain() returns causal order: a cross-thread child sorts after its
//     parent even at identical timestamps (the bug the old (start, tid,
//     depth) order had).
//   - TraceContext crosses ThreadPool submission; batch flushes link every
//     member span; run scopes stamp run ids on every span beneath them.
//   - Labeled counters are independent instruments with deterministic
//     snapshot order; the unlabeled fast path and the legacy export shapes
//     stay byte-identical (golden strings).
//   - Fleet-mode counters reconcile exactly against the SuiteResult under
//     Harsh and Hostile policies (workers=4, batch=16).
//   - The flight recorder is a bounded ring with eviction-surviving seq
//     numbers, and a failed hostile run carries its history end to end.
#include <algorithm>
#include <future>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/agent/service_adapter.h"
#include "src/agent/task_runner.h"
#include "src/dmi/service_config.h"
#include "src/json/json.h"
#include "src/support/flight_recorder.h"
#include "src/support/metrics.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"
#include "src/support/trace_export.h"

namespace {

class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    support::TraceRecorder::Global().Discard();
    support::TraceRecorder::Global().SetEnabled(true);
  }
  void TearDown() override {
    support::TraceRecorder::Global().SetEnabled(false);
    support::TraceRecorder::Global().Discard();
  }
};

// ----- causal sort (the Drain() ordering fix) --------------------------------

support::TraceEvent MakeEvent(const char* name, uint64_t span, uint64_t parent,
                              uint64_t start_us, uint32_t tid, int depth = 0) {
  support::TraceEvent e;
  e.name = name;
  e.category = "test";
  e.span_id = span;
  e.parent_span_id = parent;
  e.start_us = start_us;
  e.tid = tid;
  e.depth = depth;
  return e;
}

TEST(CausalSortTest, CrossThreadChildSortsAfterParentAtSameTimestamp) {
  // Worker (tid 2) opened its span the same microsecond the submitter
  // (tid 1) opened the parent. Thread-local depth says both are roots —
  // only the explicit parent id can order them.
  std::vector<support::TraceEvent> events;
  events.push_back(MakeEvent("child", 12, 11, 100, 2, 0));
  events.push_back(MakeEvent("grandchild", 13, 12, 100, 2, 1));
  events.push_back(MakeEvent("parent", 11, 0, 100, 1, 0));
  support::SortTraceEventsCausally(events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "parent");
  EXPECT_EQ(events[1].name, "child");
  EXPECT_EQ(events[2].name, "grandchild");
}

TEST(CausalSortTest, EarlierTimestampStillWinsOverCausalDepth) {
  std::vector<support::TraceEvent> events;
  events.push_back(MakeEvent("late_root", 20, 0, 200, 1, 0));
  events.push_back(MakeEvent("early_leaf", 22, 21, 50, 2, 0));
  events.push_back(MakeEvent("early_root", 21, 0, 50, 1, 0));
  support::SortTraceEventsCausally(events);
  EXPECT_EQ(events[0].name, "early_root");
  EXPECT_EQ(events[1].name, "early_leaf");
  EXPECT_EQ(events[2].name, "late_root");
}

TEST(CausalSortTest, AbsentParentFallsBackToRecordedThreadDepth) {
  // The parent span is still open at drain time (not in `events`): fall
  // back to the thread-local depth, keeping the old deterministic order.
  std::vector<support::TraceEvent> events;
  events.push_back(MakeEvent("deep", 31, 99, 10, 1, 2));
  events.push_back(MakeEvent("shallow", 32, 98, 10, 1, 1));
  support::SortTraceEventsCausally(events);
  EXPECT_EQ(events[0].name, "shallow");
  EXPECT_EQ(events[1].name, "deep");
}

TEST(CausalSortTest, ParentCycleDoesNotHangOrThrow) {
  // Corrupt input (can't happen from the recorder, but the sort must not
  // infinitely recurse): two events claiming each other as parent.
  std::vector<support::TraceEvent> events;
  events.push_back(MakeEvent("a", 41, 42, 10, 1, 0));
  events.push_back(MakeEvent("b", 42, 41, 10, 1, 1));
  support::SortTraceEventsCausally(events);
  ASSERT_EQ(events.size(), 2u);  // completed with a deterministic order:
  // the cycle is detected mid-walk, so "b" falls back to its recorded thread
  // depth (1) and "a" resolves one deeper (2).
  EXPECT_EQ(events[0].name, "b");
  EXPECT_EQ(events[1].name, "a");
}

// ----- context propagation ---------------------------------------------------

TEST_F(TraceFixture, SpansRecordLogicalParentAndRunId) {
  const uint64_t run_id = support::AllocateTraceRunId();
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    support::TraceContextScope run_scope(support::TraceContext{run_id, 0});
    support::TraceSpan outer("outer", "test");
    outer_id = outer.span_id();
    {
      support::TraceSpan inner("inner", "test");
      inner_id = inner.span_id();
    }
  }
  ASSERT_NE(outer_id, 0u);
  ASSERT_NE(inner_id, 0u);
  std::vector<support::TraceEvent> events = support::TraceRecorder::Global().Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].span_id, outer_id);
  EXPECT_EQ(events[0].parent_span_id, 0u);
  EXPECT_EQ(events[0].run_id, run_id);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].parent_span_id, outer_id);
  EXPECT_EQ(events[1].run_id, run_id);
}

TEST_F(TraceFixture, PoolWorkerSpanParentsToSubmittingSpan) {
  const uint64_t run_id = support::AllocateTraceRunId();
  uint64_t submit_id = 0;
  {
    support::TraceContextScope run_scope(support::TraceContext{run_id, 0});
    support::TraceSpan submit("submit_site", "test");
    submit_id = submit.span_id();
    support::ThreadPool pool(2);
    std::vector<std::future<void>> pending;
    for (int i = 0; i < 4; ++i) {
      pending.push_back(pool.Submit([] {
        support::TraceSpan work("worker_work", "test");
      }));
    }
    for (auto& f : pending) {
      f.get();
    }
  }
  std::vector<support::TraceEvent> events = support::TraceRecorder::Global().Drain();
  int pool_tasks = 0;
  int worker_work = 0;
  std::map<uint64_t, const support::TraceEvent*> by_span;
  for (const support::TraceEvent& e : events) {
    by_span[e.span_id] = &e;
  }
  for (const support::TraceEvent& e : events) {
    if (e.name == "pool.task") {
      ++pool_tasks;
      // The worker-side wrapper parents to the submitter's span, across the
      // thread boundary, and inherits the run id.
      EXPECT_EQ(e.parent_span_id, submit_id);
      EXPECT_EQ(e.run_id, run_id);
    } else if (e.name == "worker_work") {
      ++worker_work;
      ASSERT_NE(e.parent_span_id, 0u);
      auto it = by_span.find(e.parent_span_id);
      ASSERT_NE(it, by_span.end());
      EXPECT_EQ(it->second->name, "pool.task");
      EXPECT_EQ(e.run_id, run_id);
    }
  }
  EXPECT_EQ(pool_tasks, 4);
  EXPECT_EQ(worker_work, 4);
}

TEST_F(TraceFixture, RunIdsAllocateEvenWhenTracingDisabled) {
  support::TraceRecorder::Global().SetEnabled(false);
  const uint64_t a = support::AllocateTraceRunId();
  const uint64_t b = support::AllocateTraceRunId();
  EXPECT_NE(a, 0u);
  EXPECT_EQ(b, a + 1);
  // But the thread context stays empty: disabled means one relaxed load.
  EXPECT_TRUE(support::CurrentTraceContext().empty());
}

// ----- export byte-identity (golden) ----------------------------------------

TEST(TraceExportGoldenTest, ZeroContextEventRendersLegacyShape) {
  // A span emitted with no causal context (the pre-§13 shape) must render
  // byte-identically to the legacy exporter output: no span/parent/run/links
  // keys anywhere.
  support::TraceEvent e;
  e.name = "rip.capture";
  e.category = "rip";
  e.start_us = 10;
  e.dur_us = 5;
  e.tid = 1;
  e.depth = 0;
  e.args = {{"context", "default"}};
  EXPECT_EQ(support::ChromeTraceJson({e}).Dump(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"args\":{\"context\":"
            "\"default\",\"depth\":0},\"cat\":\"rip\",\"dur\":5,\"name\":"
            "\"rip.capture\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10}]}");
}

TEST(TraceExportGoldenTest, CausalEventEmitsContextArgsAndFlowEvents) {
  support::TraceEvent parent = MakeEvent("submit_site", 11, 0, 10, 1);
  parent.category = "test";
  support::TraceEvent child = MakeEvent("pool.task", 12, 11, 20, 2);
  child.run_id = 7;
  child.links = {11};
  auto doc = jsonv::Parse(support::ChromeTraceJson({parent, child}).Dump());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const jsonv::Value* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int complete = 0, flow_start = 0, flow_end = 0;
  for (const jsonv::Value& e : events->as_array()) {
    const std::string ph = e.GetString("ph");
    if (ph == "X") {
      ++complete;
      if (e.GetString("name") == "pool.task") {
        const jsonv::Value* args = e.Find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->GetInt("span"), 12);
        EXPECT_EQ(args->GetInt("parent"), 11);
        EXPECT_EQ(args->GetInt("run"), 7);
      }
    } else if (ph == "s") {
      ++flow_start;
      EXPECT_EQ(e.GetString("cat"), "flow");
    } else if (ph == "f") {
      ++flow_end;
      EXPECT_EQ(e.GetString("bp"), "e");
    }
  }
  EXPECT_EQ(complete, 2);
  // One cross-thread parent edge ("submit") + one span link ("link").
  EXPECT_EQ(flow_start, 2);
  EXPECT_EQ(flow_end, 2);
}

// ----- labeled metrics -------------------------------------------------------

TEST(LabeledMetricsTest, LabelOrderDoesNotSplitInstruments) {
  support::MetricsRegistry& registry = support::MetricsRegistry::Global();
  support::Counter& a =
      registry.GetCounter("test.labeled", {{"app", "Word"}, {"policy", "harsh"}});
  support::Counter& b =
      registry.GetCounter("test.labeled", {{"policy", "harsh"}, {"app", "Word"}});
  EXPECT_EQ(&a, &b);  // labels are key-sorted before keying the instrument
  support::Counter& other = registry.GetCounter("test.labeled", {{"app", "Excel"}});
  EXPECT_NE(&a, &other);
  support::Counter& unlabeled = registry.GetCounter("test.labeled");
  EXPECT_NE(&a, &unlabeled);  // the bare name is its own instrument
}

TEST(LabeledMetricsTest, SnapshotOrderIsDeterministicAndQueryable) {
  support::MetricsRegistry& registry = support::MetricsRegistry::Global();
  registry.ResetAllForTest();
  support::CountMetric("test.z", {{"app", "B"}}, 2);
  support::CountMetric("test.z", {{"app", "A"}}, 3);
  support::CountMetric("test.a", {{"k", "v"}, {"a", "b"}}, 5);
  const support::MetricsSnapshot snapshot = registry.Snapshot();
  std::vector<std::string> keys;
  for (const support::CounterSnapshot& c : snapshot.labeled_counters) {
    if (c.value == 0) {
      continue;  // instruments registered by sibling tests, zeroed by reset
    }
    keys.push_back(support::MetricsRegistry::EncodeLabeledName(c.name, c.labels));
  }
  // Sorted by encoded name (labels themselves key-sorted): deterministic
  // across runs and insertion orders.
  EXPECT_EQ(keys, (std::vector<std::string>{"test.a{a=b,k=v}", "test.z{app=A}",
                                            "test.z{app=B}"}));
  EXPECT_EQ(snapshot.LabeledCounterValue("test.z", {{"app", "A"}}), 3u);
  EXPECT_EQ(snapshot.LabeledCounterValue("test.a", {{"a", "b"}, {"k", "v"}}), 5u);
  EXPECT_EQ(snapshot.LabeledCounterValue("test.z", {{"app", "missing"}}), 0u);
}

TEST(LabeledMetricsTest, UnlabeledExportStaysByteIdentical) {
  // The legacy export shape is a compatibility contract: when no labeled
  // counters exist, MetricsJson must render byte-for-byte what it always
  // rendered (no "labeled_counters" key, same member order).
  support::MetricsSnapshot snapshot;
  snapshot.counters.push_back({"agent.runs", 3, {}});
  snapshot.counters.push_back({"agent.successes", 2, {}});
  EXPECT_EQ(support::MetricsJson(snapshot).Dump(),
            "{\"counters\":{\"agent.runs\":3,\"agent.successes\":2},\"derived\":"
            "{\"agent_success_rate\":1},\"histograms\":{}}");
}

TEST(LabeledMetricsTest, LabeledExportAppearsOnlyWhenPresent) {
  support::MetricsSnapshot snapshot;
  snapshot.counters.push_back({"agent.runs", 3, {}});
  snapshot.labeled_counters.push_back(
      {"agent.runs", 2, {{"app", "WordSim"}, {"policy", "harsh"}}});
  auto doc = jsonv::Parse(support::MetricsJson(snapshot).Dump());
  ASSERT_TRUE(doc.ok());
  const jsonv::Value* labeled = doc->Find("labeled_counters");
  ASSERT_NE(labeled, nullptr);
  EXPECT_EQ(labeled->GetInt("agent.runs{app=WordSim,policy=harsh}"), 2);
}

// ----- fleet-mode reconciliation (counters vs SuiteResult) -------------------

struct SuiteTally {
  int runs = 0;
  int successes = 0;
  int failures = 0;
  uint64_t llm_calls = 0;
  uint64_t prompt_tokens = 0;
};

SuiteTally Tally(const agentsim::SuiteResult& result) {
  SuiteTally t;
  for (const auto& record : result.records) {
    for (const auto& run : record.runs) {
      ++t.runs;
      run.success ? ++t.successes : ++t.failures;
      t.llm_calls += static_cast<uint64_t>(run.llm_calls);
      t.prompt_tokens += run.prompt_tokens;
    }
  }
  return t;
}

uint64_t SumLabeled(const support::MetricsSnapshot& snapshot, const std::string& name) {
  uint64_t sum = 0;
  for (const support::CounterSnapshot& c : snapshot.labeled_counters) {
    if (c.name == name) {
      sum += c.value;
    }
  }
  return sum;
}

class FleetTelemetryTest : public ::testing::TestWithParam<const char*> {};

// Fleet mode (4 workers, batching on) under one --policy preset.
agentsim::RunConfig FleetConfig(const char* policy, uint64_t seed) {
  dmi::ServiceConfig service;
  service.mode = "dmi";
  service.seed = seed;
  service.repeats = 2;
  service.workers = 4;
  service.batch_size = 16;
  service.policy = policy;
  return agentsim::RunConfigFromService(service);
}

TEST_P(FleetTelemetryTest, LabeledCountersReconcileExactlyWithSuiteResult) {
  support::MetricsRegistry& registry = support::MetricsRegistry::Global();
  registry.ResetAllForTest();

  const std::string preset = GetParam();
  const agentsim::RunConfig config = FleetConfig(GetParam(), /*seed=*/33);
  ASSERT_EQ(config.policy_label, preset);

  agentsim::TaskRunner runner;
  const agentsim::SuiteResult result =
      runner.RunSuite(workload::BuildOsworldWSuite(), config);
  const SuiteTally tally = Tally(result);
  ASSERT_GT(tally.runs, 0);
  ASSERT_GT(tally.failures, 0) << "policy " << preset
                               << " should produce at least one failure";

  const support::MetricsSnapshot snapshot = registry.Snapshot();
  // Unlabeled totals: exact across 4 workers.
  EXPECT_EQ(snapshot.CounterValue("agent.runs"), static_cast<uint64_t>(tally.runs));
  EXPECT_EQ(snapshot.CounterValue("agent.successes"),
            static_cast<uint64_t>(tally.successes));
  EXPECT_EQ(snapshot.CounterValue("agent.failures"),
            static_cast<uint64_t>(tally.failures));
  EXPECT_EQ(snapshot.CounterValue("agent.llm_calls"), tally.llm_calls);
  EXPECT_EQ(snapshot.CounterValue("agent.prompt_tokens"), tally.prompt_tokens);
  // Label dimensions: the per-app slices sum back to the exact totals (the
  // "total + per-label" pattern drops nothing).
  EXPECT_EQ(SumLabeled(snapshot, "agent.runs"), static_cast<uint64_t>(tally.runs));
  EXPECT_EQ(SumLabeled(snapshot, "agent.llm_calls"), tally.llm_calls);
  EXPECT_EQ(SumLabeled(snapshot, "agent.prompt_tokens"), tally.prompt_tokens);
  EXPECT_EQ(SumLabeled(snapshot, "agent.failure"),
            static_cast<uint64_t>(tally.failures));
  // Every labeled agent.* instrument carries the policy label.
  for (const support::CounterSnapshot& c : snapshot.labeled_counters) {
    if (c.name.rfind("agent.", 0) != 0 || c.value == 0) {
      continue;  // zero-valued: registered by sibling tests, reset above
    }
    bool has_policy = false;
    for (const auto& kv : c.labels) {
      has_policy = has_policy || (kv.first == "policy" && kv.second == preset);
    }
    EXPECT_TRUE(has_policy) << c.name;
  }
  // Batch calls were labeled by app and sum to the scheduler's exact total.
  EXPECT_EQ(SumLabeled(snapshot, "batch.calls"), runner.batch_stats().calls);
}

TEST_P(FleetTelemetryTest, DrainIsCompleteAndCausalUnderFleetMode) {
  support::TraceRecorder::Global().Discard();
  support::TraceRecorder::Global().SetEnabled(true);

  const agentsim::RunConfig config = FleetConfig(GetParam(), /*seed=*/33);

  agentsim::TaskRunner runner;
  const agentsim::SuiteResult result =
      runner.RunSuite(workload::BuildOsworldWSuite(), config);
  support::TraceRecorder::Global().SetEnabled(false);
  const std::vector<support::TraceEvent> events =
      support::TraceRecorder::Global().Drain();

  // Every run produced exactly one agent.run span, carrying its RunResult's
  // run id — the trace and the report correlate one-to-one.
  std::set<uint64_t> result_run_ids;
  for (const auto& record : result.records) {
    for (const auto& run : record.runs) {
      ASSERT_NE(run.run_id, 0u);
      result_run_ids.insert(run.run_id);
    }
  }
  std::set<uint64_t> span_run_ids;
  std::map<uint64_t, size_t> index_of;
  size_t batch_flushes = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    index_of[events[i].span_id] = i;
  }
  for (const support::TraceEvent& e : events) {
    if (e.name == "agent.run") {
      EXPECT_NE(e.run_id, 0u);
      span_run_ids.insert(e.run_id);
    }
    if (e.name == "batch.flush") {
      ++batch_flushes;
      EXPECT_FALSE(e.links.empty());  // links to every member call's span
    }
    // Causal order: every resolvable parent drains before its child.
    if (e.parent_span_id != 0) {
      auto parent = index_of.find(e.parent_span_id);
      if (parent != index_of.end()) {
        EXPECT_LT(parent->second, index_of[e.span_id]) << e.name;
      }
    }
  }
  EXPECT_EQ(span_run_ids, result_run_ids);
  EXPECT_EQ(batch_flushes, static_cast<size_t>(runner.batch_stats().batches));
  support::TraceRecorder::Global().Discard();
}

INSTANTIATE_TEST_SUITE_P(Policies, FleetTelemetryTest,
                         ::testing::Values("harsh", "hostile"));

// ----- flight recorder -------------------------------------------------------

TEST(FlightRecorderTest, RingEvictsOldestAndSeqSurvives) {
  support::FlightRecorder recorder(/*run_id=*/42, /*capacity=*/4);
  for (int i = 1; i <= 10; ++i) {
    recorder.RecordNote("note " + std::to_string(i));
  }
  EXPECT_EQ(recorder.TotalRecorded(), 10u);
  EXPECT_EQ(recorder.DroppedCount(), 6u);
  const std::vector<support::FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 7u);  // oldest retained
  EXPECT_EQ(events.back().seq, 10u);
  EXPECT_EQ(events.back().what, "note 10");
}

TEST(FlightRecorderTest, CapacityZeroClampsToOne) {
  support::FlightRecorder recorder(/*run_id=*/1, /*capacity=*/0);
  EXPECT_EQ(recorder.capacity(), 1u);
  recorder.RecordNote("a");
  recorder.RecordNote("b");
  ASSERT_EQ(recorder.Events().size(), 1u);
  EXPECT_EQ(recorder.Events()[0].what, "b");
}

TEST(FlightRecorderTest, CommandEventsCarryStatusAndErrorDetail) {
  support::FlightRecorder recorder(/*run_id=*/7, /*capacity=*/16);
  support::ErrorDetail detail;
  detail.control_id = 123;
  detail.control_name = "Save";
  detail.retryable = true;
  detail.attempts = 3;
  detail.backoff_ticks = 9;
  recorder.RecordRetry("access(id=123)", 3, 9);
  recorder.RecordCommand("access(id=123)",
                         support::UnavailableError("control is not responding")
                             .WithDetail(std::move(detail)));
  recorder.RecordLlmCall(900, 120);
  recorder.RecordBatch(5);

  const std::vector<support::FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, "retry");
  EXPECT_EQ(events[0].attempts, 3);
  EXPECT_EQ(events[0].backoff_ticks, 9u);
  EXPECT_EQ(events[1].kind, "command");
  ASSERT_NE(events[1].detail, nullptr);
  EXPECT_EQ(events[1].detail->control_name, "Save");
  EXPECT_EQ(events[2].kind, "llm_call");
  EXPECT_EQ(events[2].tokens, 900);
  EXPECT_EQ(events[2].aux_tokens, 120);
  EXPECT_EQ(events[3].kind, "batch");
  EXPECT_EQ(events[3].batch_id, 5u);

  // The JSON rendering carries the same ErrorDetail shape as the suite
  // report's final_status (both land in --report-json).
  auto doc = jsonv::Parse(support::FlightRecorderJson(recorder).Dump());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetInt("run_id"), 7);
  EXPECT_EQ(doc->GetInt("total_recorded"), 4);
  const jsonv::Value* rendered = doc->Find("events");
  ASSERT_NE(rendered, nullptr);
  ASSERT_EQ(rendered->as_array().size(), 4u);
  const jsonv::Value& cmd = rendered->as_array()[1];
  EXPECT_EQ(cmd.GetString("kind"), "command");
  const jsonv::Value* ed = cmd.Find("error_detail");
  ASSERT_NE(ed, nullptr);
  EXPECT_EQ(ed->GetString("control_name"), "Save");
  EXPECT_EQ(ed->GetInt("attempts"), 3);
  EXPECT_EQ(ed->GetInt("backoff_ticks"), 9);
}

TEST(FlightRecorderTest, HostileFleetRunAttachesHistoryToFailedResults) {
  const agentsim::RunConfig config = FleetConfig("hostile", /*seed=*/21);

  agentsim::TaskRunner runner;
  const agentsim::SuiteResult result =
      runner.RunSuite(workload::BuildOsworldWSuite(), config);
  int failed = 0;
  for (const auto& record : result.records) {
    for (const auto& run : record.runs) {
      ASSERT_NE(run.flight, nullptr) << record.task_id;
      ASSERT_NE(run.run_id, 0u);
      EXPECT_EQ(run.flight->run_id(), run.run_id);
      EXPECT_GT(run.flight->TotalRecorded(), 0u) << record.task_id;
      const std::vector<support::FlightEvent> events = run.flight->Events();
      // Fleet mode: every run's LLM calls rode a batch, and membership was
      // recorded next to the call.
      EXPECT_NE(std::find_if(events.begin(), events.end(),
                             [](const support::FlightEvent& e) {
                               return e.kind == "llm_call";
                             }),
                events.end())
          << record.task_id;
      EXPECT_NE(std::find_if(events.begin(), events.end(),
                             [](const support::FlightEvent& e) {
                               return e.kind == "batch";
                             }),
                events.end())
          << record.task_id;
      if (!run.success) {
        ++failed;
        // The terminal note pins the failure cause into the ring.
        EXPECT_EQ(events.back().kind, "note");
        EXPECT_EQ(events.back().what.rfind("run failed: ", 0), 0u) << events.back().what;
      }
    }
  }
  EXPECT_GT(failed, 0) << "hostile should fail at least one run";
}

}  // namespace
