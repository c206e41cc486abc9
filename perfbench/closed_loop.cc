// dmi_suite and gui_baseline: one client thread calling TaskRunner::RunOnce
// over the seeded session set, in interleaved passes.
#include <cstdio>
#include <limits>
#include <memory>

#include "bench.h"
#include "src/agent/service_adapter.h"
#include "src/dmi/model_artifact.h"
#include "src/support/rng.h"

namespace perfbench {
namespace {

// dmi_suite: 27 tasks x 160 trials = 4320 sessions: 43 lie beyond p99, and
// the simulated-plane shares rest on enough sessions to hold within a few
// percent across seeds. More sessions would mean fewer repeats of each in the
// window.
constexpr int kTrialsPerTask = 160;
// gui_baseline's sessions take about half as long, so it runs twice as many:
// its p99 and its one_shot_share (about 7.5% of successes) move more from
// seed to seed on 4320 sessions.
constexpr int kGuiTrialsPerTask = 320;
// Fresh set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Host reference probes before and after each set-up.
constexpr int kSetupProbes = 20;
// A pass runs in chunks of this many sessions with a host reference probe
// between chunks; a chunk's sessions are scaled by the mean of the probes on
// either side of it. The thread may move between CPUs of different speed
// within a pass, so the scale is taken as near the sessions as it can be.
constexpr size_t kSessionsPerProbe = 32;
// Repeats per session: at least this many passes, then more while another
// pass, as long as the last one, fits in the measuring window.
constexpr int kMinPasses = 3;
// The traced run's layer probes take every kProbeStride-th session.
constexpr size_t kProbeStride = 8;

constexpr double kInf = std::numeric_limits<double>::infinity();

// One fresh set-up: every app kind's model resolved through the full offline
// pipeline (rip + compile) and its pool warmed with one instance.
std::unique_ptr<agentsim::TaskRunner> SetUp(const std::vector<const workload::Task*>& per_kind,
                                            const std::string& model_dir) {
  auto runner = std::make_unique<agentsim::TaskRunner>();
  if (!model_dir.empty()) {
    runner->SetModelDir(model_dir);
  }
  for (const workload::Task* task : per_kind) {
    (void)runner->modeling_stats(task->app);
    runner->app_pool().Prewarm(*task, 1);
  }
  return runner;
}

}  // namespace

Outcome RunClosedLoop(const Args& args, agentsim::InterfaceMode mode) {
  const bool dmi_mode = mode == agentsim::InterfaceMode::kGuiPlusDmi;
  dmi::ServiceConfig service;
  service.mode = dmi_mode ? "dmi" : "gui";
  service.model = "gpt5";
  service.policy = "typical";
  const agentsim::RunConfig config = agentsim::RunConfigFromService(service);

  const std::vector<workload::Task> tasks = workload::BuildOsworldWSuite();
  const std::vector<const workload::Task*> per_kind = OnePerKind(tasks);
  const std::vector<Session> sessions =
      MakeSessions(tasks, args.seed, dmi_mode ? kTrialsPerTask : kGuiTrialsPerTask);
  const size_t n = sessions.size();
  support::TraceRecorder& recorder = support::TraceRecorder::Global();
  LayerInputs layers;
  HostReference reference;

  // ----- set-up ---------------------------------------------------------------------
  // The traced run builds once, through an artifact store, so the probes can
  // reach the compiled models and time their cold load.
  const std::string model_dir = args.trace ? args.work_dir + "/models" : "";
  std::unique_ptr<agentsim::TaskRunner> runner;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    runner.reset();
    const double before_ms = reference.MedianMs(kSetupProbes);
    recorder.SetEnabled(args.trace);
    const int64_t t0 = NowNs();
    runner = SetUp(per_kind, model_dir);
    const int64_t t1 = NowNs();
    recorder.SetEnabled(false);
    const double host_ms = (before_ms + reference.MedianMs(kSetupProbes)) / 2;
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9 * ReferenceScale(host_ms));
  }
  DrainInto(&layers.setup_spans);
  layers.builds = 1;

  // ----- timed passes ---------------------------------------------------------------
  // Traced runs alternate traced and untraced passes: the traced ones feed
  // the layer table, the pair gives the tracing overhead. They end on an
  // untraced pass, so both kinds' minima are over as many repeats.
  std::vector<double> best_ms(n, kInf);
  std::vector<double> best_traced_ms(n, kInf);
  std::vector<double> best_wall_ms(n, kInf);  // not scaled; printed beside the metrics
  std::vector<double> wall_ms(n);
  std::vector<uint64_t> first_fingerprint(n);
  std::vector<SimRun> sim(n);
  std::vector<bool> disagrees(n, false);
  std::vector<double> pass_ms;
  std::vector<double> pass_host_ms;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  support::Rng shuffle(args.seed ^ 0x7061737365735eedULL);

  int traced_passes = 0;
  layers.counters.Start();
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds) * 1000000000;
  int pass = 0;
  for (; pass < kMinPasses || (args.trace && pass % 2 == 1) ||
         NowNs() + static_cast<int64_t>(pass_ms.back() * 1e6) <= deadline;
       ++pass) {
    shuffle.Shuffle(order);
    const bool traced = args.trace && pass % 2 == 0;
    std::vector<double> probe_ms;  // probe c precedes chunk c; the last ends the pass
    const int64_t pass_start = NowNs();
    for (size_t k = 0; k < n; ++k) {
      if (k % kSessionsPerProbe == 0) {
        probe_ms.push_back(reference.ProbeMs());
      }
      const size_t idx = order[k];
      const Session& s = sessions[idx];
      recorder.SetEnabled(traced);
      const int64_t t0 = NowNs();
      agentsim::RunResult run = runner->RunOnce(*s.task, config, s.seed);
      const int64_t t1 = NowNs();
      recorder.SetEnabled(false);
      wall_ms[idx] = static_cast<double>(t1 - t0) / 1e6;
      const uint64_t fingerprint = RunFingerprint(run);
      if (pass == 0) {
        first_fingerprint[idx] = fingerprint;
        sim[idx] = SimOf(run);
      } else if (fingerprint != first_fingerprint[idx]) {
        disagrees[idx] = true;
      }
    }
    probe_ms.push_back(reference.ProbeMs());
    pass_ms.push_back(static_cast<double>(NowNs() - pass_start) / 1e6);
    pass_host_ms.push_back(Median(probe_ms));
    for (size_t k = 0; k < n; ++k) {
      const size_t chunk = k / kSessionsPerProbe;
      const double scale = ReferenceScale((probe_ms[chunk] + probe_ms[chunk + 1]) / 2);
      const size_t idx = order[k];
      if (traced) {
        best_traced_ms[idx] = std::min(best_traced_ms[idx], wall_ms[idx] * scale);
      } else {
        best_ms[idx] = std::min(best_ms[idx], wall_ms[idx] * scale);
        best_wall_ms[idx] = std::min(best_wall_ms[idx], wall_ms[idx]);
      }
    }
    if (traced) {
      DrainInto(&layers.spans);
      ++traced_passes;
    }
  }
  layers.counters.Stop();

  Outcome out;
  out.attempted = n;
  for (size_t i = 0; i < n; ++i) {
    out.failed += disagrees[i] ? 1 : 0;
  }
  out.correct = out.failed == 0 && reference.consistent();

  const double best_pass = *std::min_element(pass_ms.begin(), pass_ms.end());
  std::printf("%s: %zu sessions x %d passes (%d traced); contention: median pass / best pass "
              "= %.3f (%.0f / %.0f ms)\n",
              args.workload.c_str(), n, pass, traced_passes, Median(pass_ms) / best_pass,
              Median(pass_ms), best_pass);
  PrintHost(pass_host_ms, reference);
  std::printf("repeat check: %llu of %zu sessions disagree between repeats\n",
              static_cast<unsigned long long>(out.failed), n);

  if (!args.trace) {
    double sum_ms = 0;
    double sum_wall_ms = 0;
    for (size_t i = 0; i < n; ++i) {
      sum_ms += best_ms[i];
      sum_wall_ms += best_wall_ms[i];
    }
    Metrics& m = out.metrics;
    m["setup_s"] = {Median(setup_s), "s"};
    PrintSetups(setup_s);
    m["sessions_per_s"] = {static_cast<double>(n) / (sum_ms / 1000.0), "1/s"};
    m["session_p50_ms"] = {Percentile(best_ms, 0.50), "ms"};
    m["session_p99_ms"] = {Percentile(best_ms, 0.99), "ms"};
    m["peak_rss_mb"] = {PeakRssMb(), "MB"};
    AddSimulatedPlane(sim, &m);
    std::printf("session_p99_ms over %zu per-session minima (%zu above it)\n", n,
                CountAbove(best_ms, 0.99));
    std::printf("in wall time, not scaled: %.1f sessions/s, p50 %.4f ms, p99 %.4f ms\n",
                static_cast<double>(n) / (sum_wall_ms / 1000.0), Percentile(best_wall_ms, 0.50),
                Percentile(best_wall_ms, 0.99));
    return out;
  }

  // ----- traced run: layers ---------------------------------------------------------
  layers.span_sessions = static_cast<double>(n) * traced_passes;
  layers.counter_sessions = static_cast<double>(n) * pass;
  std::vector<Session> probe_sessions;
  std::vector<agentsim::RunResult> probe_runs;
  for (size_t i = 0; i < n; i += kProbeStride) {
    probe_sessions.push_back(sessions[i]);
    probe_runs.push_back(runner->RunOnce(*sessions[i].task, config, sessions[i].seed));
  }
  layers.probes = RunProbes(*runner, config, probe_sessions, probe_runs);
  // Cold load of the artifacts the traced set-up saved: the model layer's
  // load half, which the closed loops otherwise never enter.
  recorder.SetEnabled(true);
  for (const workload::Task* task : per_kind) {
    const std::string kind = workload::AppKindName(task->app);
    auto loaded = dmi::LoadModelArtifact(runner->model_registry()->ArtifactPath(kind, "1"),
                                         agentsim::TaskRunner::DefaultModelingOptions(task->app));
    if (!loaded.ok()) {
      std::printf("artifact load probe failed: %s\n", loaded.status().ToString().c_str());
      out.correct = false;
    }
  }
  recorder.SetEnabled(false);
  DrainInto(&layers.setup_spans);
  layers.loads = 1;

  Metrics& m = out.metrics;
  AddLayerMetrics(layers, &m);
  const double traced_p50 = Percentile(best_traced_ms, 0.50);
  const double untraced_p50 = Percentile(best_ms, 0.50);
  m["trace.overhead_share"] = {traced_p50 / untraced_p50 - 1.0, "share"};
  if (!dmi_mode) {
    FillServingLayers(&m);
    return out;
  }
  const double self_us = m["agent.run_self_us"].value;
  const double outside =
      m["workload.lease_us"].value + m["workload.reset_us"].value + m["dmi.attach_us"].value;
  std::printf("agent.run_self_us %.1f us: lease + reset + attach (timed outside) = %.1f us "
              "= %.1f%% of it\n",
              self_us, outside, self_us > 0 ? 100.0 * outside / self_us : 0.0);

  // The serving stack's layers come from a serving replay after the passes.
  Outcome serving = MeasureServing(args);
  for (auto& [name, metric] : serving.metrics) {
    m[name] = metric;
  }
  out.attempted += serving.attempted;
  out.failed += serving.failed;
  out.correct = out.correct && serving.correct;
  return out;
}

}  // namespace perfbench
