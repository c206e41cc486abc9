// The serving layer (DESIGN.md §16): versioned wire schema, seeded mutations
// of the daemon's input path (frame decode + request parse), the unified
// ServiceConfig surface, SessionManager admission control / tenant quotas /
// graceful drain, field-identity of served sessions with direct runs, and
// the stdio frame loop end to end.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/agent/service_adapter.h"
#include "src/dmi/service_config.h"
#include "src/gui/instability.h"
#include "src/serve/daemon.h"
#include "src/serve/report_schema.h"
#include "src/serve/session_manager.h"
#include "src/serve/wire.h"
#include "src/support/metrics.h"
#include "src/support/rng.h"

namespace {

using serve::Request;
using serve::Response;
using serve::SessionManager;

// Deterministic, hazard-free serving config: every run is a pure function of
// (task, seed), so served sessions can be compared field-by-field.
dmi::ServiceConfig QuietConfig() {
  dmi::ServiceConfig config;
  config.policy = "none";
  config.instability = "none";
  return config;
}

const workload::Task& TaskById(const std::vector<workload::Task>& tasks,
                               const std::string& id) {
  for (const workload::Task& task : tasks) {
    if (task.id == id) {
      return task;
    }
  }
  ADD_FAILURE() << "no task " << id;
  static workload::Task missing;
  return missing;
}

// Latch that parks SessionManager workers at the before-run hook so tests
// can fill the queue deterministically.
class WorkerGate {
 public:
  void Install(SessionManager& manager) {
    manager.SetBeforeRunHookForTest([this](const Request&) {
      std::unique_lock<std::mutex> lock(mu_);
      ++held_;
      held_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    });
  }

  void WaitHeld(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    held_cv_.wait(lock, [&] { return held_ >= n; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable held_cv_;
  std::condition_variable release_cv_;
  int held_ = 0;
  bool released_ = false;
};

// Collects completion callbacks and lets tests block until N arrived.
class ResponseSink {
 public:
  SessionManager::Callback Callback() {
    return [this](Response response) {
      std::lock_guard<std::mutex> lock(mu_);
      responses_.push_back(std::move(response));
      cv_.notify_all();
    };
  }

  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return responses_.size() >= n; });
  }

  std::vector<Response> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return responses_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Response> responses_;
};

Request MakeRequest(uint64_t id, const std::string& tenant, const std::string& task,
                    uint64_t seed) {
  Request request;
  request.request_id = id;
  request.tenant = tenant;
  request.task_id = task;
  request.seed = seed;
  return request;
}

// ----- wire framing ---------------------------------------------------------

TEST(WireTest, FrameRoundTripAndPartials) {
  std::string buffer;
  serve::AppendFrame(buffer, "hello");
  serve::AppendFrame(buffer, "");
  serve::AppendFrame(buffer, std::string(1000, 'x'));

  size_t offset = 0;
  auto first = serve::DecodeFrame(buffer, &offset);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ(**first, "hello");
  auto second = serve::DecodeFrame(buffer, &offset);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(**second, "");
  auto third = serve::DecodeFrame(buffer, &offset);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)->size(), 1000u);
  EXPECT_EQ(offset, buffer.size());

  // Nothing left: a clean "no frame yet".
  auto empty = serve::DecodeFrame(buffer, &offset);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());

  // A partial frame (header only, or truncated payload) is also "not yet".
  std::string partial;
  serve::AppendFrame(partial, "payload");
  for (size_t cut = 0; cut < partial.size(); ++cut) {
    size_t at = 0;
    auto got = serve::DecodeFrame(std::string_view(partial).substr(0, cut), &at);
    ASSERT_TRUE(got.ok()) << cut;
    EXPECT_FALSE(got->has_value()) << cut;
    EXPECT_EQ(at, 0u) << cut;
  }
}

TEST(WireTest, OversizedFrameRejected) {
  // Hand-build a header claiming a payload over the 64 MiB cap.
  const uint32_t huge = serve::kMaxFramePayload + 1;
  std::string buffer;
  buffer.push_back(static_cast<char>(huge & 0xff));
  buffer.push_back(static_cast<char>((huge >> 8) & 0xff));
  buffer.push_back(static_cast<char>((huge >> 16) & 0xff));
  buffer.push_back(static_cast<char>((huge >> 24) & 0xff));
  size_t offset = 0;
  auto got = serve::DecodeFrame(buffer, &offset);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), support::StatusCode::kInvalidArgument);
}

TEST(WireTest, FileFramingRoundTrip) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(serve::WriteFrame(f, "first").ok());
  ASSERT_TRUE(serve::WriteFrame(f, "second").ok());
  std::rewind(f);
  auto first = serve::ReadFrame(f);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(**first, "first");
  auto second = serve::ReadFrame(f);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(**second, "second");
  auto eof = serve::ReadFrame(f);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
  std::fclose(f);

  // A truncated stream is transport damage, not EOF.
  std::FILE* cut = std::tmpfile();
  ASSERT_NE(cut, nullptr);
  const char header[4] = {100, 0, 0, 0};
  std::fwrite(header, 1, 4, cut);
  std::fwrite("short", 1, 5, cut);
  std::rewind(cut);
  auto bad = serve::ReadFrame(cut);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), support::StatusCode::kInvalidArgument);
  std::fclose(cut);
}

// ----- request schema -------------------------------------------------------

TEST(RequestSchemaTest, RoundTripAndTypedRejections) {
  Request request = MakeRequest(7, "acme", "W3", 42);
  auto parsed = serve::ParseRequest(serve::RequestJson(request).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 7u);
  EXPECT_EQ(parsed->tenant, "acme");
  EXPECT_EQ(parsed->task_id, "W3");
  EXPECT_EQ(parsed->seed, 42u);

  auto garbage = serve::ParseRequest("not json");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), support::StatusCode::kInvalidArgument);

  // Versioning: consumers reject schemas they do not understand.
  auto future = serve::ParseRequest(R"({"schema_version":2,"task":"W3"})");
  ASSERT_FALSE(future.ok());
  EXPECT_EQ(future.status().code(), support::StatusCode::kInvalidArgument);
  auto unversioned = serve::ParseRequest(R"({"task":"W3"})");
  EXPECT_FALSE(unversioned.ok());

  auto taskless = serve::ParseRequest(R"({"schema_version":1,"tenant":"acme"})");
  ASSERT_FALSE(taskless.ok());
  EXPECT_EQ(taskless.status().code(), support::StatusCode::kInvalidArgument);
}

// ----- untrusted bytes: seeded wire mutations -------------------------------

// Decodes every frame in `bytes` and parses each payload as a request, the
// daemon's input path. Returns how the buffer ended: "request" when it held
// only parseable requests, else the first frame error, partial frame or
// request error. Every outcome is typed, and the offset never passes the end.
std::string DecodeAll(const std::string& bytes) {
  std::string outcome = "request";
  size_t offset = 0;
  while (offset < bytes.size()) {
    const size_t before = offset;
    support::Result<std::optional<std::string>> frame = serve::DecodeFrame(bytes, &offset);
    EXPECT_LE(offset, bytes.size());
    if (!frame.ok()) {
      EXPECT_EQ(frame.status().code(), support::StatusCode::kInvalidArgument);
      EXPECT_EQ(offset, before);
      return "frame error";
    }
    if (!frame->has_value()) {
      EXPECT_EQ(offset, before);
      return "partial frame";
    }
    EXPECT_GT(offset, before);
    support::Result<Request> request = serve::ParseRequest(**frame);
    if (!request.ok()) {
      EXPECT_EQ(request.status().code(), support::StatusCode::kInvalidArgument)
          << request.status().ToString();
      outcome = "request error";
    }
  }
  return outcome;
}

TEST(WireMutation, SeededMutationsReturnStatusOrRequest) {
  std::vector<std::string> bases;
  for (const Request& request : {MakeRequest(1, "acme", "W3", 1),
                                 MakeRequest(123456789, "tenant-b", "E2", 987654321),
                                 MakeRequest(7, "", "P1", 0)}) {
    std::string frame;
    serve::AppendFrame(frame, serve::RequestJson(request).Dump());
    bases.push_back(frame);
  }
  // Two frames back to back, so a damaged length desynchronizes the next.
  bases.push_back(bases[0] + bases[1]);

  // Seeded mutations: bytes set to any value (control bytes and bytes
  // >= 0x80 included), truncations, and length prefixes rewritten to the
  // decoder's edge values.
  support::Rng rng(20261019);
  std::map<std::string, int> outcomes;
  constexpr int kIterations = 2000;
  for (int i = 0; i < kIterations; ++i) {
    std::string bytes = bases[rng.NextBelow(bases.size())];
    switch (rng.NextBelow(3)) {
      case 0:
        for (uint64_t n = 1 + rng.NextBelow(4); n > 0; --n) {
          bytes[rng.NextBelow(bytes.size())] = static_cast<char>(rng.NextBelow(256));
        }
        break;
      case 1:
        bytes.resize(rng.NextBelow(bytes.size()));
        break;
      default: {
        const uint32_t length = static_cast<uint32_t>(bytes.size() - 4);
        const uint32_t choices[] = {0,
                                    length - 1,
                                    length + 1,
                                    serve::kMaxFramePayload,
                                    serve::kMaxFramePayload + 1,
                                    0xFFFFFFFFu};
        const uint32_t value = choices[rng.NextBelow(std::size(choices))];
        for (int b = 0; b < 4; ++b) {
          bytes[static_cast<size_t>(b)] = static_cast<char>((value >> (8 * b)) & 0xff);
        }
        break;
      }
    }
    ++outcomes[DecodeAll(bytes)];
  }
  // The loop reached every outcome, and nothing else.
  EXPECT_GT(outcomes["request"], 0);
  EXPECT_GT(outcomes["request error"], 0);
  EXPECT_GT(outcomes["partial frame"], 0);
  EXPECT_GT(outcomes["frame error"], 0);
  EXPECT_EQ(outcomes.size(), 4u);

  // Nesting: 256 levels (the request object and 255 arrays) parse; one more
  // is a typed error.
  auto nested = [](int arrays) {
    return R"({"schema_version":1,"task":"W3","x":)" + std::string(arrays, '[') + "0" +
           std::string(arrays, ']') + "}";
  };
  auto deep = serve::ParseRequest(nested(255));
  ASSERT_TRUE(deep.ok()) << deep.status().ToString();
  EXPECT_EQ(deep->task_id, "W3");
  auto too_deep = serve::ParseRequest(nested(256));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), support::StatusCode::kInvalidArgument);

  // Integers out of int64's range saturate instead of converting undefined.
  auto huge = serve::ParseRequest(R"({"schema_version":1,"task":"W3","seed":1e300})");
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge->seed, static_cast<uint64_t>(INT64_MAX));
  auto version = serve::ParseRequest(R"({"schema_version":-1e300,"task":"W3"})");
  ASSERT_FALSE(version.ok());
  EXPECT_EQ(version.status().code(), support::StatusCode::kInvalidArgument);
}

// ----- ServiceConfig --------------------------------------------------------

TEST(ServiceConfigTest, DefaultsValidateAndFlagsApply) {
  dmi::ServiceConfig config;
  EXPECT_TRUE(config.Validate().ok());

  support::Status error = support::Status::Ok();
  EXPECT_TRUE(config.ApplyFlag("--mode", "gui", &error));
  EXPECT_TRUE(error.ok());
  EXPECT_TRUE(config.ApplyFlag("--batch", "8", &error));
  EXPECT_TRUE(error.ok());
  EXPECT_TRUE(config.ApplyFlag("--tenant-tokens", "100000", &error));
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(config.mode, "gui");
  EXPECT_EQ(config.batch_size, 8);
  EXPECT_EQ(config.tenant_token_budget, 100000);
  EXPECT_TRUE(config.Validate().ok());

  // Not a ServiceConfig flag: the binary tries its local vocabulary next.
  EXPECT_FALSE(config.ApplyFlag("--task", "W3", &error));

  // Recognized flag, malformed value: typed error, no exit.
  EXPECT_TRUE(config.ApplyFlag("--seed", "banana", &error));
  EXPECT_EQ(error.code(), support::StatusCode::kInvalidArgument);

  // Out-of-range integers are bad values naming the flag, never a wrapped
  // or saturated setting that Validate() would then accept.
  const std::pair<const char*, const char*> out_of_range[] = {
      {"--max-in-flight", "4294967297"},          // would wrap to 1
      {"--workers", "4294967296"},                // would wrap to 0 (= one per hardware thread)
      {"--queue", "-4294967295"},                 // would wrap to 1
      {"--seed", "18446744073709551616"},         // 2^64
      {"--seed", "-1"},                           // unsigned
      {"--tenant-tokens", "9223372036854775808"},  // 2^63
  };
  for (const auto& [flag, value] : out_of_range) {
    EXPECT_TRUE(config.ApplyFlag(flag, value, &error)) << flag;
    EXPECT_EQ(error.code(), support::StatusCode::kInvalidArgument) << flag << " " << value;
    EXPECT_NE(error.message().find(flag), std::string::npos) << error.ToString();
  }
  // A rejected value leaves the setting untouched.
  const dmi::ServiceConfig defaults;
  EXPECT_EQ(config.max_in_flight, defaults.max_in_flight);
  EXPECT_EQ(config.workers, defaults.workers);
  EXPECT_EQ(config.queue_capacity, defaults.queue_capacity);
  EXPECT_EQ(config.seed, defaults.seed);
}

TEST(ServiceConfigTest, ValidateNamesOffendingField) {
  dmi::ServiceConfig config;
  config.mode = "vr";
  auto bad_mode = config.Validate();
  ASSERT_FALSE(bad_mode.ok());
  EXPECT_NE(bad_mode.message().find("mode"), std::string::npos);

  config = dmi::ServiceConfig();
  config.policy = "merciless";
  EXPECT_FALSE(config.Validate().ok());

  config = dmi::ServiceConfig();
  config.max_in_flight = 0;
  EXPECT_FALSE(config.Validate().ok());

  config = dmi::ServiceConfig();
  config.tenant_token_budget = -1;
  EXPECT_FALSE(config.Validate().ok());

  // Values that size thread pools and run slots are bounded; each bound is
  // accepted and the value just over it is rejected, naming the field.
  // Validate() starts nothing, so this checks the bounds without a thread.
  struct Bound {
    const char* field;
    int dmi::ServiceConfig::*value;
    int max;
  };
  const Bound bounds[] = {
      {"workers", &dmi::ServiceConfig::workers, dmi::kMaxServiceThreads},
      {"max_in_flight", &dmi::ServiceConfig::max_in_flight, dmi::kMaxServiceThreads},
      {"repeats", &dmi::ServiceConfig::repeats, dmi::kMaxRepeats},
  };
  for (const Bound& bound : bounds) {
    config = dmi::ServiceConfig();
    config.*bound.value = bound.max;
    EXPECT_TRUE(config.Validate().ok()) << bound.field;
    config.*bound.value = bound.max + 1;
    const support::Status over = config.Validate();
    EXPECT_EQ(over.code(), support::StatusCode::kInvalidArgument) << bound.field;
    EXPECT_EQ(over.message().rfind(bound.field, 0), 0u) << over.ToString();
  }
}

TEST(ServiceConfigTest, AdapterProjectsLegacyRunConfig) {
  dmi::ServiceConfig config;
  config.mode = "forest";
  config.model = "mini";
  config.policy = "harsh";
  config.seed = 9;
  config.repeats = 2;
  config.step_cap = 12;
  config.workers = 3;
  config.batch_size = 4;
  config.enable_fuzzy_match = false;
  ASSERT_TRUE(config.Validate().ok());

  agentsim::RunConfig run = agentsim::RunConfigFromService(config);
  EXPECT_EQ(run.mode, agentsim::InterfaceMode::kGuiOnlyForest);
  EXPECT_EQ(run.profile.model, agentsim::LlmProfile::Gpt5MiniMedium().model);
  EXPECT_EQ(run.seed, 9u);
  EXPECT_EQ(run.repeats, 2);
  EXPECT_EQ(run.step_cap, 12);
  EXPECT_EQ(run.workers, 3);
  EXPECT_TRUE(run.pool_apps);
  EXPECT_TRUE(run.batch.enabled);
  EXPECT_EQ(run.batch.max_batch_size, 4u);
  // The §5.6 toggles land on the visit config.
  EXPECT_TRUE(run.visit.enable_nonleaf_filter);
  EXPECT_FALSE(run.visit.enable_fuzzy_match);
  EXPECT_TRUE(run.visit.enable_retry);
  // --policy harsh adopted the whole preset: its hazard level, one retry
  // schedule for both interfaces, no deadline, and the metrics label...
  EXPECT_EQ(run.policy_label, "harsh");
  EXPECT_DOUBLE_EQ(run.instability.click_fail_rate,
                   gsim::InstabilityConfig::Harsh().click_fail_rate);
  EXPECT_EQ(run.visit.retry.max_attempts, 4);
  EXPECT_EQ(run.visit.retry.max_backoff_ticks, 8u);
  EXPECT_EQ(run.interaction_retry.max_attempts, 4);
  EXPECT_EQ(run.run_deadline_ticks, 0u);

  // ...and --instability afterwards overrides just the hazard level.
  config.instability = "none";
  agentsim::RunConfig overridden = agentsim::RunConfigFromService(config);
  EXPECT_EQ(overridden.policy_label, "harsh");
  EXPECT_EQ(overridden.visit.retry.max_attempts, 4);
  EXPECT_DOUBLE_EQ(overridden.instability.click_fail_rate, 0.0);
  EXPECT_DOUBLE_EQ(overridden.instability.name_variation_rate, 0.0);

  // Only the hostile preset bounds a run with a deadline.
  config.policy = "hostile";
  config.instability.clear();
  const agentsim::RunConfig hostile = agentsim::RunConfigFromService(config);
  EXPECT_EQ(hostile.run_deadline_ticks, 600u);
  EXPECT_EQ(hostile.visit.retry.max_attempts, 5);

  // No preset: Typical hazards, the executor's fixed retry loop, no label.
  const agentsim::RunConfig plain = agentsim::RunConfigFromService(dmi::ServiceConfig());
  EXPECT_TRUE(plain.policy_label.empty());
  EXPECT_TRUE(plain.visit.retry.unset());
  EXPECT_TRUE(plain.interaction_retry.unset());
  EXPECT_DOUBLE_EQ(plain.instability.click_fail_rate,
                   gsim::InstabilityConfig::Typical().click_fail_rate);
}

// ----- schema golden --------------------------------------------------------

// Pins the suite-report shape (field names, ordering, formatting) to the
// byte level. If this test breaks, the wire schema changed: bump
// serve::kSchemaVersion and document the migration in DESIGN.md §16 —
// never silently fork the shape.
TEST(ReportSchemaTest, SuiteReportGoldenBytes) {
  agentsim::RunConfig config;
  config.seed = 5;
  config.repeats = 1;
  config.policy_label = "typical";
  config.workers = 2;
  config.batch.enabled = true;
  config.batch.max_batch_size = 8;

  agentsim::SuiteResult result;
  agentsim::TaskRecord record;
  record.task_id = "W3";
  agentsim::RunResult ok_run;
  ok_run.success = true;
  ok_run.llm_calls = 6;
  ok_run.core_calls = 3;
  ok_run.sim_time_s = 21.5;
  ok_run.prompt_tokens = 1200;
  ok_run.output_tokens = 90;
  ok_run.ui_actions = 4;
  ok_run.run_id = 11;
  record.runs.push_back(ok_run);
  agentsim::RunResult failed_run;
  failed_run.success = false;
  failed_run.llm_calls = 2;
  failed_run.sim_time_s = 8.25;
  failed_run.run_id = 12;
  failed_run.cause = agentsim::FailureCause::kNavigationError;
  support::ErrorDetail detail;
  detail.control_id = "n17";
  detail.control_name = "Bold";
  detail.retryable = true;
  detail.attempts = 2;
  detail.backoff_ticks = 3;
  failed_run.final_status =
      support::UnavailableError("control occluded").WithDetail(std::move(detail));
  record.runs.push_back(failed_run);
  result.records.push_back(record);

  agentsim::BatchScheduler::Stats batch;
  batch.calls = 12;
  batch.batches = 3;

  const std::string got = serve::SuiteReportJson(config, result, &batch).DumpPretty();
  const std::string want = R"GOLD({
  "fleet_batching": {
    "amortized_call_latency_s": 0,
    "amortized_speedup": 0,
    "batches": 3,
    "calls": 12,
    "max_batch_size": 8,
    "prefix_tokens_saved": 0,
    "tokens_per_sec": 0,
    "workers": 2
  },
  "mode": "GUI-only",
  "model": "GPT-5",
  "policy": "typical",
  "repeats": 1,
  "schema_version": 1,
  "seed": 5,
  "success_rate": 0.5,
  "tasks": [
    {
      "runs": [
        {
          "cause": "none",
          "core_calls": 3,
          "final_status": {
            "code": "OK",
            "message": ""
          },
          "llm_calls": 6,
          "output_tokens": 90,
          "prompt_tokens": 1200,
          "run_id": 11,
          "sim_time_s": 21.5,
          "success": true,
          "ui_actions": 4
        },
        {
          "cause": "control localization / navigation error",
          "core_calls": 0,
          "final_status": {
            "code": "UNAVAILABLE",
            "error_detail": {
              "attempts": 2,
              "backoff_ticks": 3,
              "control_id": "n17",
              "control_name": "Bold",
              "required_pattern": "",
              "retryable": true
            },
            "message": "control occluded"
          },
          "llm_calls": 2,
          "output_tokens": 0,
          "prompt_tokens": 0,
          "run_id": 12,
          "sim_time_s": 8.25,
          "success": false,
          "ui_actions": 0
        }
      ],
      "task": "W3"
    }
  ]
})GOLD";
  EXPECT_EQ(got, want);
}

// Both front ends stamp the same schema version.
TEST(ReportSchemaTest, ResponseCarriesSchemaVersion) {
  Response response;
  response.request_id = 3;
  response.tenant = "acme";
  response.task_id = "W3";
  response.status = support::Status::Ok();
  const jsonv::Value doc = serve::ResponseJson(response);
  EXPECT_EQ(doc.GetInt("schema_version", -1), serve::kSchemaVersion);
}

// ----- admission control ----------------------------------------------------

TEST(AdmissionTest, QueueFullRejectsTyped) {
  support::MetricsRegistry::Global().ResetAllForTest();
  dmi::ServiceConfig config = QuietConfig();
  config.max_in_flight = 2;
  config.queue_capacity = 2;
  SessionManager manager(config);
  WorkerGate gate;
  gate.Install(manager);
  ResponseSink sink;

  // Fill the running slots first (deterministic: wait for both workers to
  // park at the gate), then the queue.
  ASSERT_TRUE(manager.Submit(MakeRequest(1, "", "W3", 1), sink.Callback()).ok());
  ASSERT_TRUE(manager.Submit(MakeRequest(2, "", "W3", 2), sink.Callback()).ok());
  gate.WaitHeld(2);
  ASSERT_TRUE(manager.Submit(MakeRequest(3, "", "W3", 3), sink.Callback()).ok());
  ASSERT_TRUE(manager.Submit(MakeRequest(4, "", "W3", 4), sink.Callback()).ok());
  EXPECT_EQ(manager.Outstanding(), 4u);

  const support::Status rejected =
      manager.Submit(MakeRequest(5, "", "W3", 5), sink.Callback());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), support::StatusCode::kResourceExhausted);

  // Unknown tasks are a different typed error, and never occupy capacity.
  const support::Status unknown =
      manager.Submit(MakeRequest(6, "", "NOPE", 1), sink.Callback());
  EXPECT_EQ(unknown.code(), support::StatusCode::kNotFound);

  gate.Release();
  sink.WaitFor(4);
  manager.Shutdown();

  const SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.peak_outstanding, 4u);

  // The labeled counters tell the same story as the typed statuses.
  const support::MetricsSnapshot snap = support::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.LabeledCounterValue(
                "session.rejected", {{"reason", "queue_full"}, {"tenant", "default"}}),
            1u);
  EXPECT_EQ(snap.LabeledCounterValue("session.admitted", {{"tenant", "default"}}), 4u);
}

TEST(AdmissionTest, TenantConcurrentQuotaIsPerTenant) {
  support::MetricsRegistry::Global().ResetAllForTest();
  dmi::ServiceConfig config = QuietConfig();
  config.max_in_flight = 2;
  config.queue_capacity = 8;
  config.tenant_max_concurrent = 1;
  SessionManager manager(config);
  WorkerGate gate;
  gate.Install(manager);
  ResponseSink sink;

  ASSERT_TRUE(manager.Submit(MakeRequest(1, "acme", "W3", 1), sink.Callback()).ok());

  // acme is at its concurrency cap while the first session is in flight.
  const support::Status capped =
      manager.Submit(MakeRequest(2, "acme", "W3", 2), sink.Callback());
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.code(), support::StatusCode::kResourceExhausted);

  // Another tenant is unaffected: quotas are per-tenant, not global.
  ASSERT_TRUE(manager.Submit(MakeRequest(3, "globex", "E2", 1), sink.Callback()).ok());

  gate.Release();
  sink.WaitFor(2);
  manager.Shutdown();

  const SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected_tenant_concurrent, 1u);

  const support::MetricsSnapshot snap = support::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.LabeledCounterValue(
                "session.rejected", {{"reason", "tenant_concurrent"}, {"tenant", "acme"}}),
            1u);
  EXPECT_EQ(snap.LabeledCounterValue("session.admitted", {{"tenant", "acme"}}), 1u);
  EXPECT_EQ(snap.LabeledCounterValue("session.admitted", {{"tenant", "globex"}}), 1u);
  // The per-tenant token meters reconcile with the manager's accounting.
  EXPECT_EQ(snap.LabeledCounterValue("session.tokens", {{"tenant", "acme"}}) +
                snap.LabeledCounterValue("session.tokens", {{"tenant", "globex"}}),
            static_cast<uint64_t>(stats.tokens_served));
}

TEST(AdmissionTest, TenantTokenBudgetClosesAdmission) {
  dmi::ServiceConfig config = QuietConfig();
  config.max_in_flight = 1;
  config.tenant_token_budget = 1;  // post-paid: first session crosses the line
  SessionManager manager(config);

  Response first = manager.Run(MakeRequest(1, "acme", "W3", 1));
  ASSERT_TRUE(first.status.ok());
  EXPECT_GT(first.result.prompt_tokens + first.result.output_tokens, 0u);

  Response second = manager.Run(MakeRequest(2, "acme", "W3", 2));
  ASSERT_FALSE(second.status.ok());
  EXPECT_EQ(second.status.code(), support::StatusCode::kResourceExhausted);

  // A fresh tenant still has budget.
  Response other = manager.Run(MakeRequest(3, "globex", "W3", 1));
  EXPECT_TRUE(other.status.ok());

  manager.Shutdown();
  EXPECT_EQ(manager.stats().rejected_tenant_tokens, 1u);
}

// Closed loop: every completion callback submits the same user's next
// request. Each user is its own tenant capped at one session, so a
// resubmission is admitted only if Finish closed the finished session's
// accounting before running the callback.
TEST(AdmissionTest, ClosedLoopResubmitFromCallbackIsAdmitted) {
  dmi::ServiceConfig config = QuietConfig();
  config.batch_size = 8;
  config.max_in_flight = 4;
  config.tenant_max_concurrent = 1;
  SessionManager manager(config);
  manager.PrewarmModels();

  constexpr int kUsers = 32;
  constexpr int kRequestsPerUser = 3;
  const std::vector<std::string> task_ids = {"W3", "E2", "P1"};  // 3 app kinds

  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> sent(kUsers, 0);
  std::vector<Response> responses;
  std::vector<support::Status> rejections;
  int chains_done = 0;

  std::function<void(int)> submit_next = [&](int user) {
    int k = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      k = sent[static_cast<size_t>(user)]++;
    }
    const uint64_t id = static_cast<uint64_t>(user * kRequestsPerUser + k + 1);
    Request request = MakeRequest(id, "user" + std::to_string(user),
                                  task_ids[static_cast<size_t>(user + k) % task_ids.size()],
                                  id * 7919);
    const support::Status admitted =
        manager.Submit(std::move(request), [&, user](Response response) {
          bool more = false;
          {
            std::lock_guard<std::mutex> lock(mu);
            responses.push_back(std::move(response));
            more = sent[static_cast<size_t>(user)] < kRequestsPerUser;
            if (!more) {
              ++chains_done;
              cv.notify_all();
            }
          }
          if (more) {
            submit_next(user);
          }
        });
    if (!admitted.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      rejections.push_back(admitted);
      ++chains_done;
      cv.notify_all();
    }
  };
  for (int user = 0; user < kUsers; ++user) {
    submit_next(user);
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return chains_done == kUsers; });
  }
  // Every session's accounting closed before its callback signalled.
  EXPECT_EQ(manager.Outstanding(), 0u);
  manager.Shutdown();

  for (const support::Status& status : rejections) {
    ADD_FAILURE() << "resubmission rejected: " << status.ToString();
  }
  const SessionManager::Stats stats = manager.stats();
  const uint64_t total = static_cast<uint64_t>(kUsers * kRequestsPerUser);
  EXPECT_EQ(stats.rejected_queue_full + stats.rejected_tenant_concurrent +
                stats.rejected_tenant_tokens + stats.rejected_draining,
            0u);
  EXPECT_EQ(stats.admitted, total);
  EXPECT_EQ(stats.completed, total);
  ASSERT_EQ(responses.size(), total);
  for (const Response& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.request_id;
    if (!response.result.success) {
      EXPECT_NE(response.result.flight, nullptr) << response.request_id;
    }
  }
}

// ----- drain ----------------------------------------------------------------

TEST(DrainTest, GracefulShutdownFinishesInFlightCancelsQueued) {
  dmi::ServiceConfig config = QuietConfig();
  config.max_in_flight = 1;
  config.queue_capacity = 8;
  SessionManager manager(config);
  WorkerGate gate;
  gate.Install(manager);
  ResponseSink sink;

  ASSERT_TRUE(manager.Submit(MakeRequest(1, "", "W3", 1), sink.Callback()).ok());
  gate.WaitHeld(1);
  ASSERT_TRUE(manager.Submit(MakeRequest(2, "", "E2", 1), sink.Callback()).ok());
  ASSERT_TRUE(manager.Submit(MakeRequest(3, "", "P1", 1), sink.Callback()).ok());

  // Shutdown from another thread: it cancels the queued sessions immediately,
  // then blocks on the in-flight one (parked at the gate).
  std::thread drainer([&] { manager.Shutdown(); });
  sink.WaitFor(2);  // both cancellations delivered while #1 still runs
  for (const Response& response : sink.Take()) {
    EXPECT_EQ(response.status.code(), support::StatusCode::kCancelled);
    EXPECT_NE(response.request_id, 1u);
  }

  // Intake is closed while draining.
  const support::Status late = manager.Submit(MakeRequest(4, "", "W3", 1), sink.Callback());
  EXPECT_EQ(late.code(), support::StatusCode::kUnavailable);

  gate.Release();
  drainer.join();
  sink.WaitFor(3);

  int delivered_ok = 0;
  for (const Response& response : sink.Take()) {
    if (response.request_id == 1) {
      // The in-flight session ran to a verdict and answered normally.
      EXPECT_TRUE(response.status.ok());
      ++delivered_ok;
    }
  }
  EXPECT_EQ(delivered_ok, 1);

  const SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.rejected_draining, 1u);
}

// ----- equivalence ----------------------------------------------------------

// Sessions served concurrently over the shared substrate (one model per
// kind, pooled apps) are field-identical to direct, isolated TaskRunner
// runs — serving changes scheduling, never results.
TEST(ServeEquivalenceTest, ConcurrentSessionsMatchDirectRunsAcrossKinds) {
  dmi::ServiceConfig config = QuietConfig();
  config.max_in_flight = 4;
  config.queue_capacity = 64;
  SessionManager manager(config);
  manager.PrewarmModels();
  ResponseSink sink;

  const std::vector<std::string> task_ids = {"W3", "E2", "P1"};  // 3 app kinds
  constexpr uint64_t kSeeds = 3;
  uint64_t id = 0;
  for (const std::string& task_id : task_ids) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      ASSERT_TRUE(
          manager.Submit(MakeRequest(++id, "t" + std::to_string(seed), task_id, seed),
                         sink.Callback())
              .ok());
    }
  }
  sink.WaitFor(task_ids.size() * kSeeds);

  // Request ids were assigned task-major, seed-minor above; rebuild the
  // (task, seed) key per response so completion order doesn't matter.
  agentsim::TaskRunner direct;
  const std::vector<workload::Task> tasks = workload::BuildOsworldWSuite();
  id = 0;
  std::map<uint64_t, std::pair<std::string, uint64_t>> key_by_id;
  for (const std::string& task_id : task_ids) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      key_by_id[++id] = {task_id, seed};
    }
  }
  for (const Response& response : sink.Take()) {
    ASSERT_TRUE(response.status.ok());
    const auto& [task_id, seed] = key_by_id.at(response.request_id);
    const agentsim::RunResult expect =
        direct.RunOnce(TaskById(tasks, task_id), manager.run_config(), seed);
    const agentsim::RunResult& got = response.result;
    EXPECT_EQ(got.success, expect.success) << task_id << "/" << seed;
    EXPECT_EQ(got.llm_calls, expect.llm_calls) << task_id << "/" << seed;
    EXPECT_EQ(got.core_calls, expect.core_calls) << task_id << "/" << seed;
    EXPECT_DOUBLE_EQ(got.sim_time_s, expect.sim_time_s) << task_id << "/" << seed;
    EXPECT_EQ(got.prompt_tokens, expect.prompt_tokens) << task_id << "/" << seed;
    EXPECT_EQ(got.output_tokens, expect.output_tokens) << task_id << "/" << seed;
    EXPECT_EQ(got.ui_actions, expect.ui_actions) << task_id << "/" << seed;
    EXPECT_EQ(got.cause, expect.cause) << task_id << "/" << seed;
  }
  manager.Shutdown();
}

// ----- frame loop end to end ------------------------------------------------

TEST(ServeLoopTest, ServesFramesOverStdioStreams) {
  dmi::ServiceConfig config = QuietConfig();
  config.max_in_flight = 2;
  SessionManager manager(config);

  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  ASSERT_TRUE(
      serve::WriteFrame(in, serve::RequestJson(MakeRequest(1, "acme", "W3", 1)).Dump())
          .ok());
  ASSERT_TRUE(
      serve::WriteFrame(in, serve::RequestJson(MakeRequest(2, "acme", "E2", 2)).Dump())
          .ok());
  ASSERT_TRUE(serve::WriteFrame(in, "{malformed").ok());
  ASSERT_TRUE(
      serve::WriteFrame(in, serve::RequestJson(MakeRequest(3, "acme", "NOPE", 1)).Dump())
          .ok());
  std::rewind(in);

  auto served = serve::ServeLoop(in, out, manager);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->frames_read, 4u);
  EXPECT_EQ(served->parse_errors, 1u);
  EXPECT_EQ(served->rejected, 1u);
  EXPECT_EQ(served->responses_written, 4u);

  std::rewind(out);
  std::map<uint64_t, jsonv::Value> by_id;
  int error_frames = 0;
  for (;;) {
    auto frame = serve::ReadFrame(out);
    ASSERT_TRUE(frame.ok());
    if (!frame->has_value()) {
      break;
    }
    auto doc = jsonv::Parse(**frame);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->GetInt("schema_version", -1), serve::kSchemaVersion);
    const uint64_t rid = static_cast<uint64_t>(doc->GetInt("request_id", 0));
    if (rid == 0) {
      ++error_frames;  // the malformed frame answers with request_id 0
    } else {
      by_id.emplace(rid, std::move(*doc));
    }
  }
  EXPECT_EQ(error_frames, 1);
  ASSERT_EQ(by_id.size(), 3u);
  for (const uint64_t rid : {uint64_t{1}, uint64_t{2}}) {
    const jsonv::Value& doc = by_id.at(rid);
    ASSERT_NE(doc.Find("status"), nullptr) << rid;
    EXPECT_EQ(doc.Find("status")->GetString("code", ""), "OK") << rid;
    ASSERT_NE(doc.Find("run"), nullptr) << rid;
    EXPECT_GE(doc.Find("run")->GetInt("llm_calls", -1), 0) << rid;
  }
  EXPECT_EQ(by_id.at(3).Find("status")->GetString("code", ""), "NOT_FOUND");

  std::fclose(in);
  std::fclose(out);
  manager.Shutdown();
}

}  // namespace
