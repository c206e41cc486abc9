// dmi_perfbench: runs one benchmark workload and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"} with every metric the
// workload measured. perfbench/run.py builds this binary, runs it and keeps
// the metrics BENCHMARK.json names.
//
//   dmi_perfbench --workload dmi_suite|gui_baseline --seed N
//                 --seconds S --trace 0|1 --work-dir DIR
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "src/support/logging.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "dmi_perfbench: %s\nusage: dmi_perfbench --workload dmi_suite|gui_baseline "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_seed || args.work_dir.empty() || args.seconds <= 0) {
    return Usage("--seed, --work-dir and a positive --seconds are required");
  }
  // The serving measurement writes to pipes; a broken pipe must surface as a
  // write error, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  support::SetLogLevel(support::LogLevel::kWarning);

  perfbench::Outcome outcome;
  if (args.workload == "dmi_suite") {
    outcome = perfbench::RunClosedLoop(args, agentsim::InterfaceMode::kGuiPlusDmi);
  } else if (args.workload == "gui_baseline") {
    outcome = perfbench::RunClosedLoop(args, agentsim::InterfaceMode::kGuiOnly);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  jsonv::Object metrics;
  for (const auto& [name, metric] : outcome.metrics) {
    if (!std::isfinite(metric.value)) {
      std::printf("metric %s is not finite\n", name.c_str());
      outcome.correct = false;
      continue;
    }
    jsonv::Object entry;
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    metrics[name] = jsonv::Value(std::move(entry));
  }
  jsonv::Object result;
  result["correct"] = outcome.correct;
  result["attempted"] = static_cast<int64_t>(outcome.attempted);
  result["failed"] = static_cast<int64_t>(outcome.failed);
  result["metrics"] = jsonv::Value(std::move(metrics));
  std::printf("%s\n", jsonv::Value(std::move(result)).Dump().c_str());
  return 0;
}
