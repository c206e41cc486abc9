// Reproduction fingerprint: the paper suites' results, pinned bit for bit.
//
// Runs the eight Table 3 settings at seed 1 with 3 repeats (the Fig 5b, Fig 6
// and §5.4 tables are computed from its GPT-5-medium rows) and the four
// --policy presets at bench_ablation_faults' setting (GUI+DMI, GPT-5 medium,
// seed 1, 2 repeats). It pins a 64-bit FNV-1a digest over every run's result
// fields (the run id and flight recorder are left out: they identify one
// execution, not its outcome) and, next to it, the readable values the
// benches print. Any change that moves a simulated-plane number fails here
// and prints every new value, so the movement has to be declared and
// re-pinned.
//
// The digest depends on the trial seeds, which TaskRunner::RunSuite and the
// instability injector derive from std::hash<std::string>. Its values are
// libstdc++'s until seeding moves to a portable hash.
#include <cstdarg>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/agent/service_adapter.h"
#include "src/agent/task_runner.h"
#include "src/dmi/service_config.h"
#include "src/gui/application.h"
#include "src/workload/tasks.h"

namespace {

using agentsim::RunResult;
using agentsim::SuiteResult;

void MixRun(gsim::StateHash& h, const RunResult& run) {
  h.MixBool(run.success);
  h.MixU64(static_cast<uint64_t>(run.llm_calls));
  h.MixU64(static_cast<uint64_t>(run.core_calls));
  h.MixDouble(run.sim_time_s);
  h.MixU64(run.prompt_tokens);
  h.MixU64(run.output_tokens);
  h.MixU64(run.ui_actions);
  h.MixU64(static_cast<uint64_t>(run.cause));
  const support::Status& status = run.final_status;
  h.MixU64(static_cast<uint64_t>(status.code()));
  h.Mix(status.message());
  h.MixBool(status.has_detail());
  if (status.has_detail()) {
    const support::ErrorDetail& detail = status.detail();
    h.Mix(detail.control_id);
    h.Mix(detail.control_name);
    h.Mix(detail.required_pattern);
    h.MixBool(detail.retryable);
    h.MixU64(static_cast<uint64_t>(detail.attempts));
    h.MixU64(detail.backoff_ticks);
  }
  h.Mix(run.report_json);
}

void MixSuite(gsim::StateHash& h, const SuiteResult& suite) {
  for (const agentsim::TaskRecord& record : suite.records) {
    h.Mix(record.task_id);
    for (const RunResult& run : record.runs) {
      MixRun(h, run);
    }
  }
}

void Appendf(std::string* out, const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  *out += buf;
}

int Successes(const SuiteResult& suite) { return suite.TotalRuns() - suite.FailedRuns(); }

void AppendFailures(std::string* out, const char* label, const SuiteResult& suite) {
  Appendf(out, "fig6 %s: %d failures\n", label, suite.FailedRuns());
  for (const auto& [cause, n] : suite.FailureDistribution()) {
    Appendf(out, "  %s: %d\n", std::string(agentsim::FailureCauseName(cause)).c_str(), n);
  }
}

SuiteResult RunSetting(agentsim::TaskRunner& runner, const std::vector<workload::Task>& tasks,
                       const dmi::ServiceConfig& service) {
  EXPECT_TRUE(service.Validate().ok()) << service.mode << "/" << service.model;
  return runner.RunSuite(tasks, agentsim::RunConfigFromService(service));
}

// Pinned at the tree that introduced this test. A change that moves them
// re-pins both and declares the movement.
constexpr uint64_t kPinnedDigest = 0x336cea3f7956decdULL;
constexpr const char* kPinnedValues =
    "table3 gui/gpt5: SR 46.9% (38/81) steps 7.184 time 349.8 prompt 44493.7\n"
    "table3 forest/gpt5: SR 46.9% (38/81) steps 7.184 time 364.1 prompt 116008.9\n"
    "table3 dmi/gpt5: SR 69.1% (56/81) steps 4.339 time 218.4 prompt 38098.1\n"
    "table3 gui/gpt5min: SR 28.4% (23/81) steps 9.913 time 292.0 prompt 64030.7\n"
    "table3 dmi/gpt5min: SR 35.8% (29/81) steps 4.448 time 130.7 prompt 39268.9\n"
    "table3 gui/mini: SR 19.8% (16/81) steps 7.625 time 172.9 prompt 49876.1\n"
    "table3 forest/mini: SR 28.4% (23/81) steps 7.870 time 256.1 prompt 122771.6\n"
    "table3 dmi/mini: SR 44.4% (36/81) steps 4.444 time 113.8 prompt 39883.6\n"
    "fig5b: intersection 14, normalized steps 7.241 / 7.241 / 4.444\n"
    "fig5b: one-shot 67.9% of 56 successes\n"
    "fig6 gui: 43 failures\n"
    "  ambiguous task description: 6\n"
    "  misinterpretation of control semantics: 6\n"
    "  weak visual-semantic understanding: 5\n"
    "  misunderstanding of subtle task semantics: 4\n"
    "  control localization / navigation error: 2\n"
    "  composite interaction error: 6\n"
    "  visual recognition error: 14\n"
    "fig6 dmi: 25 failures\n"
    "  ambiguous task description: 4\n"
    "  misinterpretation of control semantics: 8\n"
    "  weak visual-semantic understanding: 1\n"
    "  misunderstanding of subtle task semantics: 4\n"
    "  topology/modeling inaccuracy: 2\n"
    "  control localization / navigation error: 6\n"
    "preset none: 34/54 successes\n"
    "preset typical: 33/54 successes\n"
    "preset harsh: 30/54 successes\n"
    "preset hostile: 32/54 successes\n";

TEST(ReproductionFingerprint, PaperSuitesArePinned) {
  const std::vector<workload::Task> tasks = workload::BuildOsworldWSuite();
  agentsim::TaskRunner runner;
  gsim::StateHash digest;
  std::string values;

  // ----- Table 3 (Fig 5a, Fig 5b, Fig 6, §5.4) -------------------------------------
  struct Setting {
    const char* mode;
    const char* model;
  };
  const Setting table3[] = {
      {"gui", "gpt5"},    {"forest", "gpt5"}, {"dmi", "gpt5"},   {"gui", "gpt5min"},
      {"dmi", "gpt5min"}, {"gui", "mini"},    {"forest", "mini"}, {"dmi", "mini"},
  };
  std::vector<SuiteResult> rows;
  for (const Setting& s : table3) {
    dmi::ServiceConfig service;
    service.mode = s.mode;
    service.model = s.model;
    service.seed = 1;
    service.repeats = 3;
    rows.push_back(RunSetting(runner, tasks, service));
    const SuiteResult& r = rows.back();
    MixSuite(digest, r);
    Appendf(&values, "table3 %s/%s: SR %.1f%% (%d/%d) steps %.3f time %.1f prompt %.1f\n",
            s.mode, s.model, 100.0 * r.SuccessRate(), Successes(r), r.TotalRuns(),
            r.AvgStepsSuccessful(), r.AvgTimeSuccessful(), r.AvgPromptTokensSuccessful());
  }

  const SuiteResult& gui = rows[0];
  const SuiteResult& forest = rows[1];
  const SuiteResult& dmi_row = rows[2];
  std::set<std::string> common;
  for (const std::string& id : gui.SolvedTasks()) {
    if (forest.SolvedTasks().count(id) > 0 && dmi_row.SolvedTasks().count(id) > 0) {
      common.insert(id);
    }
  }
  Appendf(&values, "fig5b: intersection %zu, normalized steps %.3f / %.3f / %.3f\n",
          common.size(), gui.AvgStepsOnTasks(common), forest.AvgStepsOnTasks(common),
          dmi_row.AvgStepsOnTasks(common));
  Appendf(&values, "fig5b: one-shot %.1f%% of %d successes\n", 100.0 * dmi_row.OneShotShare(),
          Successes(dmi_row));
  AppendFailures(&values, "gui", gui);
  AppendFailures(&values, "dmi", dmi_row);

  // ----- policy presets (bench_ablation_faults) --------------------------------------
  for (const char* preset : {"none", "typical", "harsh", "hostile"}) {
    dmi::ServiceConfig service;
    service.mode = "dmi";
    service.model = "gpt5";
    service.policy = preset;
    service.seed = 1;
    service.repeats = 2;
    const SuiteResult r = RunSetting(runner, tasks, service);
    MixSuite(digest, r);
    Appendf(&values, "preset %s: %d/%d successes\n", preset, Successes(r), r.TotalRuns());
  }

  char new_digest[32];
  std::snprintf(new_digest, sizeof(new_digest), "0x%016llx",
                static_cast<unsigned long long>(digest.digest()));
  EXPECT_EQ(digest.digest(), kPinnedDigest) << "new digest " << new_digest << ", new values:\n"
                                            << values;
  EXPECT_EQ(values, kPinnedValues) << "new digest " << new_digest << ", new values:\n" << values;
}

}  // namespace
