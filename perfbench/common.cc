#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <set>
#include <unordered_map>

#include "bench.h"
#include "src/serve/report_schema.h"
#include "src/support/rng.h"

namespace perfbench {
namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// The wire's run object minus the fields that identify one execution.
jsonv::Value Identityless(jsonv::Value run) {
  if (run.is_object()) {
    run.as_object().erase("run_id");
    run.as_object().erase("flight_recorder");
  }
  return run;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

size_t CountAbove(const std::vector<double>& values, double q) {
  const double cut = Percentile(values, q);
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

void PrintSetups(const std::vector<double>& setup_s) {
  std::printf("set-up: median %.4f s of %zu fresh set-ups (best %.4f s), in reference time\n",
              Median(setup_s), setup_s.size(),
              *std::min_element(setup_s.begin(), setup_s.end()));
}

double ReferenceScale(double host_ms) {
  return std::pow(kReferenceMs / host_ms, kHostExponent);
}

void PrintHost(const std::vector<double>& host_ms, const HostReference& reference) {
  std::printf("host reference: probe median %.4f ms (%.4f-%.4f over %zu timed spans) against "
              "%.4f ms on a quiet host%s\n",
              Median(host_ms), *std::min_element(host_ms.begin(), host_ms.end()),
              *std::max_element(host_ms.begin(), host_ms.end()), host_ms.size(), kReferenceMs,
              reference.consistent() ? "" : "; PROBE RESULTS DIFFER");
}

std::vector<Session> MakeSessions(const std::vector<workload::Task>& tasks, uint64_t workload_seed,
                                  int trials) {
  support::Rng rng(workload_seed);
  std::vector<Session> sessions;
  sessions.reserve(tasks.size() * static_cast<size_t>(trials));
  for (const workload::Task& task : tasks) {
    for (int trial = 0; trial < trials; ++trial) {
      sessions.push_back(Session{&task, rng.Next()});
    }
  }
  return sessions;
}

std::vector<const workload::Task*> OnePerKind(const std::vector<workload::Task>& tasks) {
  std::vector<const workload::Task*> out;
  std::set<workload::AppKind> seen;
  for (const workload::Task& task : tasks) {
    if (seen.insert(task.app).second) {
      out.push_back(&task);
    }
  }
  return out;
}

uint64_t RunFingerprint(const agentsim::RunResult& run) {
  return RunFingerprint(serve::RunJson(run));
}

uint64_t RunFingerprint(const jsonv::Value& run_json) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : Identityless(run_json).Dump()) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

SimRun SimOf(const agentsim::RunResult& run) {
  return SimRun{run.success, run.llm_calls, run.core_calls,
                static_cast<int64_t>(run.prompt_tokens), run.sim_time_s};
}

SimRun SimOf(const jsonv::Value& run_json) {
  return SimRun{run_json.GetBool("success"), run_json.GetInt("llm_calls"),
                run_json.GetInt("core_calls"), run_json.GetInt("prompt_tokens"),
                run_json.GetDouble("sim_time_s")};
}

void AddSimulatedPlane(const std::vector<SimRun>& runs, Metrics* metrics) {
  double successes = 0;
  double calls = 0;
  double tokens = 0;
  double sim_time = 0;
  double one_shot = 0;
  for (const SimRun& run : runs) {
    if (!run.success) {
      continue;
    }
    successes += 1;
    calls += static_cast<double>(run.llm_calls);
    tokens += static_cast<double>(run.prompt_tokens);
    sim_time += run.sim_time_s;
    one_shot += run.core_calls <= 1 ? 1 : 0;
  }
  const double per = successes > 0 ? 1.0 / successes : 0.0;
  (*metrics)["task_success_rate"] = {
      runs.empty() ? 0.0 : successes / static_cast<double>(runs.size()), "share"};
  (*metrics)["llm_calls_per_success"] = {calls * per, "calls"};
  (*metrics)["prompt_tokens_per_success"] = {tokens * per, "tokens"};
  (*metrics)["sim_time_per_success_s"] = {sim_time * per, "s"};
  (*metrics)["one_shot_share"] = {one_shot * per, "share"};
}

// ----- span folding -----------------------------------------------------------------

void SpanTotals::Fold(const std::vector<support::TraceEvent>& events) {
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].span_id != 0) {
      by_id.emplace(events[i].span_id, i);
    }
  }
  std::vector<std::vector<size_t>> children(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const auto it = by_id.find(events[i].parent_span_id);
    if (events[i].parent_span_id != 0 && it != by_id.end()) {
      children[it->second].push_back(i);
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> spans;
  for (size_t i = 0; i < events.size(); ++i) {
    const support::TraceEvent& e = events[i];
    const uint64_t begin = e.start_us;
    const uint64_t end = e.start_us + e.dur_us;
    // Union of the children's intervals, clipped to this span.
    spans.clear();
    for (size_t c : children[i]) {
      const uint64_t cb = std::max(begin, events[c].start_us);
      const uint64_t ce = std::min(end, events[c].start_us + events[c].dur_us);
      if (cb < ce) {
        spans.emplace_back(cb, ce);
      }
    }
    std::sort(spans.begin(), spans.end());
    uint64_t covered = 0;
    uint64_t reach = begin;
    for (const auto& [cb, ce] : spans) {
      const uint64_t from = std::max(cb, reach);
      if (ce > from) {
        covered += ce - from;
        reach = ce;
      }
    }
    total_us[e.name] += static_cast<double>(e.dur_us);
    self_us[e.name] += static_cast<double>(e.dur_us - covered);
  }
}

double SpanTotals::Total(const std::string& name) const {
  const auto it = total_us.find(name);
  return it == total_us.end() ? 0.0 : it->second;
}

double SpanTotals::Self(const std::string& name) const {
  const auto it = self_us.find(name);
  return it == self_us.end() ? 0.0 : it->second;
}

void DrainInto(SpanTotals* totals) { totals->Fold(support::TraceRecorder::Global().Drain()); }

void CounterWindow::Start() { start_ = support::MetricsRegistry::Global().Snapshot(); }

void CounterWindow::Stop() { stop_ = support::MetricsRegistry::Global().Snapshot(); }

double CounterWindow::Delta(const std::string& name) const {
  return static_cast<double>(stop_.CounterValue(name) - start_.CounterValue(name));
}

}  // namespace perfbench
