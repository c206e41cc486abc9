// dmi_run: command-line experiment runner.
//
// Runs the OSWorld-W-like suite (or one task) under a chosen interface and
// model profile, printing per-task results and the aggregate metrics — the
// same machinery behind the Table 3 bench, exposed for exploration.
//
// Usage:
//   dmi_run [--mode gui|forest|dmi] [--model gpt5|gpt5min|mini]
//           [--task W3] [--repeats 3] [--seed 1] [--step-cap 30]
//           [--workers N] [--batch N] [--pool-apps true|false]
//           [--instability none|typical|harsh|hostile]
//           [--policy none|typical|harsh|hostile]
//           [--report-json out.report.json]
//           [--trace out.trace.json] [--metrics out.metrics.json]
//
// Every shared knob parses through dmi::ServiceConfig — the same validated
// configuration surface dmi_serve uses — and is projected onto the legacy
// agentsim::RunConfig via agentsim::RunConfigFromService (DESIGN.md §16).
// Binary-local flags (--task, the export paths) stay here.
//
// --trace enables span recording and writes a Chrome-trace JSON (load it in
// chrome://tracing or https://ui.perfetto.dev); a path ending in .jsonl gets
// the line-delimited event stream instead. --metrics dumps the counter and
// histogram registry after the suite.
//
// --policy adopts a full dmi::Policy preset (instability + typed retry
// schedules + per-run deadline); --instability afterwards overrides just the
// hazard level. --report-json writes the machine-readable suite report in the
// shared serve::ReportSchema shape (schema_version 1): every run's terminal
// status with its structured ErrorDetail payload plus the RenderJson() of its
// last visit report (DESIGN.md §11, §16).
//
// --workers N runs the suite on N concurrent worker threads (0 = one per
// hardware thread); --batch N additionally enables fleet-scale inference
// batching at max batch size N and prints the continuous-batching economics
// (amortized speedup, tokens/sec, prefix tokens saved) after the suite.
// Results are field-identical with batching on or off (DESIGN.md §12).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/agent/service_adapter.h"
#include "src/agent/task_runner.h"
#include "src/dmi/service_config.h"
#include "src/json/json.h"
#include "src/serve/report_schema.h"
#include "src/support/binio.h"
#include "src/support/trace.h"
#include "src/support/trace_export.h"

namespace {

void Usage() {
  std::printf(
      "usage: dmi_run [--mode gui|forest|dmi] [--model gpt5|gpt5min|mini]\n"
      "               [--task <id>] [--repeats N] [--seed N] [--step-cap N]\n"
      "               [--workers N] [--batch N] [--pool-apps true|false]\n"
      "               [--instability none|typical|harsh|hostile]\n"
      "               [--policy none|typical|harsh|hostile]\n"
      "               [--report-json <out.json>]\n"
      "               [--trace <out.trace.json|out.jsonl>] [--metrics <out.json>]\n"
      "               [--model-dir <dir>] [--app-version V]\n");
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  dmi::ServiceConfig service;
  std::string task_filter;
  std::string trace_path;
  std::string metrics_path;
  std::string report_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--task") {
      task_filter = next("--task");
    } else if (arg == "--report-json") {
      report_path = next("--report-json");
    } else if (arg.rfind("--report-json=", 0) == 0) {
      report_path = arg.substr(std::strlen("--report-json="));
    } else if (arg == "--trace") {
      trace_path = next("--trace");
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
    } else if (arg == "--metrics") {
      metrics_path = next("--metrics");
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(std::strlen("--metrics="));
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      support::Status flag_error = support::Status::Ok();
      if (!service.ApplyFlag(arg, next(arg.c_str()), &flag_error)) {
        std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
        Usage();
        return 2;
      }
      if (!flag_error.ok()) {
        std::fprintf(stderr, "%s\n", flag_error.message().c_str());
        return 2;
      }
    }
  }

  if (!report_path.empty()) {
    service.capture_report_json = true;
  }
  const support::Status valid = service.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n", valid.message().c_str());
    Usage();
    return 2;
  }
  agentsim::RunConfig config = agentsim::RunConfigFromService(service);

  agentsim::TaskRunner runner;
  if (!service.model_dir.empty()) {
    // Attach the binary artifact store: cold-load compiled models from
    // <dir>/<kind>-<version>.dmim (emitted by dmi_modeler or a prior run's
    // save-through) instead of re-running the offline pipeline.
    runner.SetModelDir(service.model_dir, service.app_version);
  }
  std::vector<workload::Task> tasks = workload::BuildOsworldWSuite();
  if (!task_filter.empty()) {
    std::vector<workload::Task> filtered;
    for (auto& t : tasks) {
      if (t.id == task_filter) {
        filtered.push_back(t);
      }
    }
    if (filtered.empty()) {
      std::fprintf(stderr, "no task with id '%s'\n", task_filter.c_str());
      return 2;
    }
    tasks = std::move(filtered);
  }

  if (!trace_path.empty()) {
    support::TraceRecorder::Global().SetEnabled(true);
  }

  std::printf("running %zu task(s), mode=%s, model=%s %s, repeats=%d\n\n", tasks.size(),
              agentsim::InterfaceModeName(config.mode), config.profile.model.c_str(),
              config.profile.reasoning.c_str(), config.repeats);
  agentsim::SuiteResult result = runner.RunSuite(tasks, config);

  for (const auto& record : result.records) {
    std::printf("  %-4s", record.task_id.c_str());
    for (const auto& run : record.runs) {
      if (run.success) {
        std::printf("  [ok %2d steps %5.0fs]", run.llm_calls, run.sim_time_s);
      } else {
        std::printf("  [FAIL: %s]",
                    std::string(agentsim::FailureCauseName(run.cause)).c_str());
      }
    }
    std::printf("\n");
  }
  std::printf("\nSR=%.1f%%  steps=%.2f  time=%.0fs  one-shot=%.0f%%  (successful runs)\n",
              100.0 * result.SuccessRate(), result.AvgStepsSuccessful(),
              result.AvgTimeSuccessful(), 100.0 * result.OneShotShare());

  if (config.batch.enabled) {
    const agentsim::BatchScheduler::Stats stats = runner.batch_stats();
    std::printf(
        "\nfleet batching (max batch %zu): %llu calls in %llu batches\n"
        "  amortized call latency %.1fs (serial %.1fs, speedup %.2fx)\n"
        "  throughput %.0f tok/s, prefix tokens saved %llu\n",
        config.batch.max_batch_size,
        static_cast<unsigned long long>(stats.calls),
        static_cast<unsigned long long>(stats.batches),
        stats.AmortizedCallLatencyS(),
        stats.calls > 0 ? stats.serial_latency_s / static_cast<double>(stats.calls) : 0.0,
        stats.AmortizedSpeedup(), stats.TokensPerSec(),
        static_cast<unsigned long long>(stats.prefix_tokens_saved));
  }

  if (!trace_path.empty()) {
    support::TraceRecorder::Global().SetEnabled(false);
    const std::vector<support::TraceEvent> events = support::TraceRecorder::Global().Drain();
    const support::Status s = EndsWith(trace_path, ".jsonl")
                                  ? support::WriteTraceJsonl(trace_path, events)
                                  : support::WriteChromeTrace(trace_path, events);
    if (!s.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu trace events to %s\n", events.size(), trace_path.c_str());
  }
  if (!report_path.empty()) {
    const agentsim::BatchScheduler::Stats batch_stats =
        config.batch.enabled ? runner.batch_stats() : agentsim::BatchScheduler::Stats{};
    const std::string doc =
        serve::SuiteReportJson(config, result,
                               config.batch.enabled ? &batch_stats : nullptr)
            .DumpPretty() +
        "\n";
    const support::Status s = support::WriteFileBytes(report_path, doc);
    if (!s.ok()) {
      std::fprintf(stderr, "report export failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote run report to %s\n", report_path.c_str());
  }
  if (!metrics_path.empty()) {
    const support::Status s = support::WriteMetricsJson(
        metrics_path, support::MetricsRegistry::Global().Snapshot());
    if (!s.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
  }
  return 0;
}
