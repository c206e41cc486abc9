// Shared pieces of the repository benchmark (dmi_perfbench).
//
// Timing rule: every real-plane timing is the best of identical repeated
// work, in reference time (see HostReference below). Contention on a shared
// host only ever adds time, so the fastest of several identical repeats is the
// steadiest estimate of what the code costs. The closed loops keep each seeded
// session's fastest repeat; the serving measurement replays one seeded
// arrival schedule and keeps the best replay.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/agent/run_result.h"
#include "src/agent/task_runner.h"
#include "src/json/json.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"
#include "src/workload/tasks.h"

namespace perfbench {

// Set from the command line by main(), which requires the seed, a positive
// window and the work directory.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  // Scratch directory inside the checkout (model stores); created by the
  // caller, removed by run.py.
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
};

// ----- clocks -----------------------------------------------------------------------

int64_t NowNs();          // steady clock
int64_t ThreadCpuNs();    // CPU time of the calling thread
int64_t ProcessCpuNs();   // CPU time of the whole process
double PeakRssMb();       // getrusage max RSS

// ----- statistics -------------------------------------------------------------------

// Nearest-rank percentile (q in (0, 1]) of an unsorted sample: the value with
// ceil(q * n) - 1 values below it, so p99 of 1080 samples leaves ten above.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// Samples strictly above Percentile(values, q).
size_t CountAbove(const std::vector<double>& values, double q);
// Prints the set-up repeats behind setup_s (their median is the metric).
void PrintSetups(const std::vector<double>& setup_s);

// ----- inputs -----------------------------------------------------------------------

// One distinct seeded session.
struct Session {
  const workload::Task* task = nullptr;
  uint64_t seed = 0;
};

// `trials` sessions per task, seeds derived from the workload seed only.
std::vector<Session> MakeSessions(const std::vector<workload::Task>& tasks, uint64_t workload_seed,
                                  int trials);

// The task each app kind's pool is warmed with (the first of its kind).
std::vector<const workload::Task*> OnePerKind(const std::vector<workload::Task>& tasks);

// ----- results ----------------------------------------------------------------------

// The fields two runs of one seeded session must agree on: a 64-bit FNV-1a
// hash of the run's JSON as the wire reports it, minus the per-run identity
// (run id, flight recorder). A hash, not the text, so thousands of sessions'
// fingerprints stay out of peak_rss_mb.
uint64_t RunFingerprint(const agentsim::RunResult& run);
uint64_t RunFingerprint(const jsonv::Value& run_json);

// The simulated-plane fields of one run.
struct SimRun {
  bool success = false;
  int64_t llm_calls = 0;
  int64_t core_calls = 0;
  int64_t prompt_tokens = 0;
  double sim_time_s = 0.0;
};
SimRun SimOf(const agentsim::RunResult& run);
SimRun SimOf(const jsonv::Value& run_json);

// task_success_rate, llm_calls_per_success, prompt_tokens_per_success,
// sim_time_per_success_s, one_shot_share.
void AddSimulatedPlane(const std::vector<SimRun>& runs, Metrics* metrics);

// ----- per-layer folding (traced runs) ----------------------------------------------

// Span durations folded by name: total and self time (duration minus the part
// of it that child spans cover), in microseconds.
struct SpanTotals {
  std::map<std::string, double> total_us;
  std::map<std::string, double> self_us;

  void Fold(const std::vector<support::TraceEvent>& events);
  double Total(const std::string& name) const;
  double Self(const std::string& name) const;
};

// Drains the recorder into `totals`.
void DrainInto(SpanTotals* totals);

// Deltas of the registry's unlabeled counters between two snapshots.
class CounterWindow {
 public:
  void Start();
  void Stop();
  double Delta(const std::string& name) const;

 private:
  support::MetricsSnapshot start_;
  support::MetricsSnapshot stop_;
};

// Bench-side timings of single public calls, in microseconds per call, made
// on the workload's own sessions: lease, attach, prompt, listing, verify,
// reset, and the serve codec.
struct ProbeTimes {
  double lease_us = 0.0;
  double attach_us = 0.0;
  double prompt_us = 0.0;
  double listing_us = 0.0;
  double verify_us = 0.0;
  double reset_us = 0.0;
  double encode_us = 0.0;
  double parse_us = 0.0;
};

// Runs the layer probes for `sessions` against `runner`'s warm pool and the
// models in its artifact registry; `results[i]` is session i's run (the
// encode probe wraps it in a serve::Response).
ProbeTimes RunProbes(agentsim::TaskRunner& runner, const agentsim::RunConfig& config,
                     const std::vector<Session>& sessions,
                     const std::vector<agentsim::RunResult>& results);

// The per-layer metrics every workload reports from spans, counters and
// probes. A span the workload never enters reads 0.
struct LayerInputs {
  SpanTotals spans;            // the traced sessions' spans
  double span_sessions = 0.0;  // sessions those spans cover
  CounterWindow counters;      // over the whole timed window
  double counter_sessions = 0.0;
  SpanTotals setup_spans;      // model build / rip / artifact load
  double builds = 0.0;         // set-ups that built models (rip + compile)
  double loads = 0.0;          // set-ups that cold-loaded models
  ProbeTimes probes;
};
void AddLayerMetrics(const LayerInputs& in, Metrics* metrics);

// ----- host speed -------------------------------------------------------------------
//
// A shared host's speed drifts in phases of a minute or more, longer than a
// run, and its CPUs differ in speed at the same moment (on a 4-vCPU VM, the
// probe below pinned to each vCPU at once read 0.84 to 1.22 ms). The best of
// repeats cannot remove a phase that lasts the whole run, so every end-to-end
// timing is reported in reference time: wall time multiplied by
// ReferenceScale(R), where R is the time of a fixed probe run on the same
// thread next to the timed work. The probe is string-keyed tree inserts,
// hash-table inserts and a sort: allocation-heavy C++ like the program's,
// which slows with it (a DRAM-bound pointer chase does not). kReferenceMs is
// about the probe's median on that VM when quiet, so reference time reads
// close to wall time there.

class HostReference {
 public:
  HostReference();
  // Runs the probe once; its wall time in ms.
  double ProbeMs();
  // The median of `probes` probes, in ms.
  double MedianMs(int probes);
  // False if two probes computed different results.
  bool consistent() const { return consistent_; }

 private:
  std::vector<uint64_t> keys_;
  std::vector<double> values_;
  uint64_t checksum_ = 0;
  bool consistent_ = true;
};

constexpr double kReferenceMs = 1.0;
// The program slows more than the probe: over runs on that VM whose probe
// medians ranged from 0.82 to 1.58 ms, the sessions' wall time grew as the
// probe's time to the power 1.3 (p99) to 1.5 (p50), in both workloads. With
// the power 1 the spread of ten runs' session_p50_ms was 0.30 of their median;
// with 1.4 it was 0.06.
constexpr double kHostExponent = 1.4;

// The factor that turns wall time measured next to probes of `host_ms` into
// reference time.
double ReferenceScale(double host_ms);

// Prints the probe medians that scaled each timed span of the run.
void PrintHost(const std::vector<double>& host_ms, const HostReference& reference);

// ----- workloads --------------------------------------------------------------------

Outcome RunClosedLoop(const Args& args, agentsim::InterfaceMode mode);

// The serving stack's per-layer metrics (serving.cc), from replays of one
// seeded open-loop schedule against dmi_serve over a pipe pair.
Outcome MeasureServing(const Args& args);
// Sets every serving-layer metric `metrics` lacks to 0.
void FillServingLayers(Metrics* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
