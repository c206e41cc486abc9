// Fleet-scale inference batching + shared prompt-prefix cache (DESIGN.md §12).
//
// Three properties under test:
//  1. The continuous-batching latency model: amortized per-call cost strictly
//     decreasing in batch size, prefix-prefill savings accounted exactly,
//     partial batches drained by FlushAll, concurrent Submit safe (tsan).
//  2. The shared static prompt segment: N concurrent sessions of one
//     CompiledModel serve the very same bytes (pointer identity), and the
//     per-session resident cache shrinks to the dynamic segment.
//  3. Observational batching: enabling the scheduler — at any batch size, any
//     worker count, and under the Harsh/Hostile robustness presets — leaves
//     every SuiteResult field byte-identical to the unbatched reference.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/agent/batch_scheduler.h"
#include "src/agent/service_adapter.h"
#include "src/agent/task_runner.h"
#include "src/apps/word_sim.h"
#include "src/dmi/service_config.h"
#include "src/dmi/session.h"
#include "src/ripper/ripper.h"
#include "src/text/tokens.h"
#include "src/workload/tasks.h"
#include "tests/prompt_reference.h"

namespace {

using namespace agentsim;

constexpr size_t kPrefixTokens = 12000;
constexpr size_t kUniqueTokens = 650;
constexpr size_t kOutputTokens = 140;

BatchScheduler::Stats RunUniformStream(size_t max_batch_size, size_t calls) {
  BatchScheduler scheduler;
  BatchOptions options;
  options.enabled = true;
  options.max_batch_size = max_batch_size;
  scheduler.Reset(options);
  const LlmProfile profile = LlmProfile::Gpt5Medium();
  const int key = 0;
  for (size_t i = 0; i < calls; ++i) {
    scheduler.Submit(profile, &key, kPrefixTokens, kUniqueTokens, kOutputTokens);
  }
  scheduler.FlushAll();
  return scheduler.stats();
}

// ----- the latency model -----------------------------------------------------------

TEST(BatchSchedulerTest, AmortizedLatencyStrictlyDecreasingInBatchSize) {
  constexpr size_t kCalls = 64;  // divisible by every batch size below
  const LlmProfile profile = LlmProfile::Gpt5Medium();
  const double serial_call_s =
      BatchScheduler::SerialCallTimeS(profile, kPrefixTokens + kUniqueTokens, kOutputTokens);
  double last_amortized = 0;
  double last_tput = 0;
  bool first = true;
  for (size_t b : {1, 4, 16, 64}) {
    const BatchScheduler::Stats stats = RunUniformStream(b, kCalls);
    ASSERT_EQ(stats.calls, kCalls);
    ASSERT_EQ(stats.batches, kCalls / b);
    const double amortized = stats.AmortizedCallLatencyS();
    EXPECT_GT(amortized, 0.0);
    // The speedup and throughput are closed forms of the latency model:
    // kCalls serial calls against kCalls / b full batches of b.
    const double batch_s = BatchScheduler::BatchWallTimeS(profile, b, kPrefixTokens,
                                                          b * kUniqueTokens, kOutputTokens);
    const double batched_s = static_cast<double>(kCalls / b) * batch_s;
    const double speedup = static_cast<double>(kCalls) * serial_call_s / batched_s;
    const double tput = static_cast<double>(kCalls * (kPrefixTokens + kUniqueTokens +
                                                      kOutputTokens)) /
                        batched_s;
    EXPECT_NEAR(stats.AmortizedSpeedup(), speedup, 1e-9 * speedup) << "batch " << b;
    EXPECT_NEAR(stats.TokensPerSec(), tput, 1e-9 * tput) << "batch " << b;
    if (!first) {
      EXPECT_LT(amortized, last_amortized) << "batch " << b;
      EXPECT_GT(stats.TokensPerSec(), last_tput) << "batch " << b;
    }
    first = false;
    last_amortized = amortized;
    last_tput = stats.TokensPerSec();
  }
  // Serial cost is batch-size independent (same call stream), and batching
  // must beat it by construction once the batch holds more than one call.
  const BatchScheduler::Stats batched = RunUniformStream(16, 16);
  EXPECT_GT(batched.AmortizedSpeedup(), 1.0);
  EXPECT_LT(batched.batched_latency_s, batched.serial_latency_s);
}

TEST(BatchSchedulerTest, WallTimeModelMatchesClosedForm) {
  const LlmProfile profile = LlmProfile::Gpt5Medium();
  const double expected = profile.batch_overhead_s + profile.reasoning_latency_s +
                          static_cast<double>(kPrefixTokens + 4 * kUniqueTokens) /
                              profile.input_tok_per_s +
                          static_cast<double>(kOutputTokens) / profile.output_tok_per_s;
  EXPECT_DOUBLE_EQ(BatchScheduler::BatchWallTimeS(profile, 4, kPrefixTokens,
                                                  4 * kUniqueTokens, kOutputTokens),
                   expected);
  const double serial = profile.reasoning_latency_s +
                        static_cast<double>(kPrefixTokens + kUniqueTokens) /
                            profile.input_tok_per_s +
                        static_cast<double>(kOutputTokens) / profile.output_tok_per_s;
  EXPECT_DOUBLE_EQ(
      BatchScheduler::SerialCallTimeS(profile, kPrefixTokens + kUniqueTokens, kOutputTokens),
      serial);
}

TEST(BatchSchedulerTest, PrefixSavingsAccountedExactly) {
  const BatchScheduler::Stats stats = RunUniformStream(/*max_batch_size=*/8, /*calls=*/8);
  ASSERT_EQ(stats.batches, 1u);
  // One batch of 8: the shared prefix is prefilled once and saved 7 times.
  EXPECT_EQ(stats.prefix_tokens, kPrefixTokens);
  EXPECT_EQ(stats.prefix_tokens_saved, kPrefixTokens * 7);
  EXPECT_EQ(stats.unique_prompt_tokens, kUniqueTokens * 8);
  EXPECT_EQ(stats.output_tokens, kOutputTokens * 8);
}

TEST(BatchSchedulerTest, FlushAllDrainsPartialBatches) {
  BatchScheduler scheduler;
  BatchOptions options;
  options.enabled = true;
  options.max_batch_size = 16;
  scheduler.Reset(options);
  const LlmProfile profile = LlmProfile::Gpt5Medium();
  const int key = 0;
  for (int i = 0; i < 5; ++i) {
    scheduler.Submit(profile, &key, kPrefixTokens, kUniqueTokens, kOutputTokens);
  }
  // Below the flush threshold: nothing costed yet.
  EXPECT_EQ(scheduler.stats().batches, 0u);
  EXPECT_EQ(scheduler.stats().calls, 0u);
  scheduler.FlushAll();
  const BatchScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.calls, 5u);
  EXPECT_EQ(stats.prefix_tokens_saved, kPrefixTokens * 4);
  // Drained: a second flush is a no-op.
  scheduler.FlushAll();
  EXPECT_EQ(scheduler.stats().batches, 1u);
}

TEST(BatchSchedulerTest, DistinctPrefixKeysNeverShareABatch) {
  BatchScheduler scheduler;
  BatchOptions options;
  options.enabled = true;
  options.max_batch_size = 4;
  scheduler.Reset(options);
  const LlmProfile profile = LlmProfile::Gpt5Medium();
  const int key_a = 0;
  const int key_b = 0;
  for (int i = 0; i < 2; ++i) {
    scheduler.Submit(profile, &key_a, kPrefixTokens, kUniqueTokens, kOutputTokens);
    scheduler.Submit(profile, &key_b, kPrefixTokens, kUniqueTokens, kOutputTokens);
    // Prefix-less (framework) calls batch under the null key.
    scheduler.Submit(profile, nullptr, 0, 500, 80);
  }
  scheduler.FlushAll();
  const BatchScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.calls, 6u);
  EXPECT_EQ(stats.batches, 3u);  // one partial batch per key
  // Each keyed batch saved one prefix; the null-key batch saved nothing.
  EXPECT_EQ(stats.prefix_tokens_saved, kPrefixTokens * 2);
}

TEST(BatchSchedulerTest, ConcurrentSubmitIsThreadSafe) {
  BatchScheduler scheduler;
  BatchOptions options;
  options.enabled = true;
  options.max_batch_size = 16;
  scheduler.Reset(options);
  const LlmProfile profile = LlmProfile::Gpt5Medium();
  static const int keys[4] = {0, 0, 0, 0};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        scheduler.Submit(profile, &keys[t % 4], kPrefixTokens, kUniqueTokens,
                         kOutputTokens);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  scheduler.FlushAll();
  const BatchScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.calls, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(stats.batches, stats.calls / 16);
  EXPECT_EQ(stats.unique_prompt_tokens, kUniqueTokens * kThreads * kPerThread);
}

// ----- shared static prompt segment ------------------------------------------------

TEST(SharedPrefixTest, StaticSegmentPointerIdenticalAcrossConcurrentSessions) {
  dmi::ModelingOptions options =
      TaskRunner::DefaultModelingOptions(workload::AppKind::kWord);
  apps::WordSim scratch;
  ripper::GuiRipper rip(scratch, options.ripper_config);
  std::shared_ptr<const dmi::CompiledModel> model =
      dmi::CompiledModel::Compile(rip.Rip(options.contexts), options);

  apps::WordSim reference_app;
  dmi::DmiSession reference(reference_app, model);
  const std::string want = prompt_reference::BuildPromptContextUncached(reference);

  constexpr int kThreads = 8;
  std::vector<const std::string*> statics(kThreads, nullptr);
  std::vector<std::string> assembled(kThreads);
  std::vector<size_t> resident(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      apps::WordSim app;
      dmi::DmiSession session(app, model);
      const dmi::PromptView view = session.Prompt();
      statics[static_cast<size_t>(i)] = view.static_text;
      assembled[static_cast<size_t>(i)] = view.Assemble();
      resident[static_cast<size_t>(i)] = session.PromptBufferBytes();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    // Pointer identity — the static bytes exist once, on the model.
    EXPECT_EQ(statics[static_cast<size_t>(i)], &model->static_prompt()) << i;
    // Byte identity — assembling the shared view reproduces the reference.
    EXPECT_EQ(assembled[static_cast<size_t>(i)], want) << i;
    // Residency — per-session buffer holds only the dynamic segment.
    EXPECT_LT(resident[static_cast<size_t>(i)], model->static_prompt().size()) << i;
    EXPECT_EQ(resident[static_cast<size_t>(i)],
              want.size() - model->static_prompt().size())
        << i;
  }
  // The compile-time token count is exact, not an estimate.
  EXPECT_EQ(model->static_prompt_tokens(), textutil::CountTokens(model->static_prompt()));
  EXPECT_GT(model->static_prompt_tokens(), 1000u);
}

// ----- observational batching: suites are field-identical --------------------------

void ExpectSameResult(const RunResult& a, const RunResult& b, const std::string& what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.llm_calls, b.llm_calls) << what;
  EXPECT_EQ(a.core_calls, b.core_calls) << what;
  EXPECT_DOUBLE_EQ(a.sim_time_s, b.sim_time_s) << what;
  EXPECT_EQ(a.prompt_tokens, b.prompt_tokens) << what;
  EXPECT_EQ(a.output_tokens, b.output_tokens) << what;
  EXPECT_EQ(a.ui_actions, b.ui_actions) << what;
  EXPECT_EQ(a.cause, b.cause) << what;
}

void ExpectSameSuite(const SuiteResult& a, const SuiteResult& b, const std::string& what) {
  ASSERT_EQ(a.records.size(), b.records.size()) << what;
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].task_id, b.records[i].task_id) << what;
    ASSERT_EQ(a.records[i].runs.size(), b.records[i].runs.size()) << what;
    for (size_t r = 0; r < a.records[i].runs.size(); ++r) {
      ExpectSameResult(a.records[i].runs[r], b.records[i].runs[r],
                       what + " task " + a.records[i].task_id);
    }
  }
}

TEST(SuiteEquivalenceTest, BatchedMatchesUnbatchedAtEveryBatchSize) {
  const std::vector<workload::Task> suite = workload::BuildOsworldWSuite();
  for (InterfaceMode mode : {InterfaceMode::kGuiOnly, InterfaceMode::kGuiPlusDmi}) {
    RunConfig base;
    base.mode = mode;
    base.repeats = 1;
    TaskRunner reference_runner;
    const SuiteResult reference = reference_runner.RunSuite(suite, base);

    for (size_t batch_size : {1, 4, 16}) {
      TaskRunner runner;
      RunConfig cfg = base;
      cfg.workers = 4;  // the concurrent fleet mode
      cfg.batch.enabled = true;
      cfg.batch.max_batch_size = batch_size;
      const SuiteResult batched = runner.RunSuite(suite, cfg);
      ExpectSameSuite(batched, reference,
                      std::string(InterfaceModeName(mode)) + " batch=" +
                          std::to_string(batch_size));
      // The scheduler really saw the fleet's calls.
      const BatchScheduler::Stats stats = runner.batch_stats();
      EXPECT_GT(stats.calls, 0u) << batch_size;
      EXPECT_GT(stats.batches, 0u) << batch_size;
      if (mode == InterfaceMode::kGuiPlusDmi && batch_size > 1) {
        EXPECT_GT(stats.prefix_tokens_saved, 0u) << batch_size;
        EXPECT_GT(stats.AmortizedSpeedup(), 1.0) << batch_size;
      }
    }
  }
}

TEST(SuiteEquivalenceTest, BatchedMatchesUnbatchedUnderHarshAndHostilePolicies) {
  const std::vector<workload::Task> suite = workload::BuildOsworldWSuite();
  for (const char* preset : {"harsh", "hostile"}) {
    dmi::ServiceConfig service;
    service.mode = "dmi";
    service.repeats = 1;
    service.policy = preset;
    TaskRunner reference_runner;
    const SuiteResult reference =
        reference_runner.RunSuite(suite, agentsim::RunConfigFromService(service));

    TaskRunner runner;
    service.workers = 4;
    service.batch_size = 16;
    const SuiteResult batched = runner.RunSuite(suite, agentsim::RunConfigFromService(service));
    ExpectSameSuite(batched, reference, std::string("policy ") + preset);
    EXPECT_GT(runner.batch_stats().calls, 0u);
  }
}

}  // namespace
