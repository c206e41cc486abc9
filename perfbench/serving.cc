// The serving stack's layers, measured in dmi_suite's traced run: the
// dmi_serve stack behind serve::ServeLoop over a pipe pair, driven by one
// client thread that writes request frames on a seeded Poisson schedule (an
// open loop) and reads the response frames.
//
// Its timings are per-layer metrics, in wall time, not end-to-end ones: every
// request crosses four threads, and each hand-off waits for a CPU to wake, so
// on a shared host its latency grows faster than the host slows and no probe
// scales it back. On a 4-vCPU VM, a replay's p50 read 3.3 to 6.3 ms across
// runs while the host probe (bench.h), timed on the client thread during the
// replay, moved only from 1.18 to 1.62 ms.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "src/serve/daemon.h"
#include "src/serve/session_manager.h"
#include "src/serve/wire.h"
#include "src/support/rng.h"

namespace perfbench {
namespace {

constexpr int kMaxInFlight = 2;
constexpr int kBatchSize = 8;
constexpr int kTenants = 16;
// Offered load, fixed and absolute: about a third of the 2-worker capacity,
// which measured 600-700 sessions/s on a quiet 4-vCPU x86-64 VM. Nearer
// capacity, queueing multiplies every stall of a shared host into the
// latency tail.
constexpr double kRequestsPerS = 220.0;
// Requests per replay: every task 40 times, 1080 in all, so ten lie beyond
// each replay's p99 and every seed sends the same task mix.
constexpr int kTrialsPerTask = 40;
// Each percentile is taken within a replay; the lowest replay is reported.
constexpr int kReplays = 3;
// Fresh SessionManager + PrewarmModels set-ups; dmi.model_load_ms is their
// mean cold load.
constexpr int kSetups = 10;
// Responses checked against a direct TaskRunner::RunOnce of the same session.
constexpr size_t kDirectSample = 128;
// The schedule starts this long after a replay begins.
constexpr int64_t kLeadNs = 5'000'000;
// A replay still missing responses this long after its last send is stuck.
constexpr int64_t kStallNs = 60'000'000'000;

struct Planned {
  Session session;
  std::string tenant;
  int64_t offset_ns = 0;  // scheduled send time, from the schedule's origin
};

// Poisson arrivals conditioned on their count: n uniform send times over
// n / kRequestsPerS seconds, so every seed offers exactly that rate. Sessions
// are sent in a seeded random order, each from a random tenant.
std::vector<Planned> MakeSchedule(const std::vector<workload::Task>& tasks, uint64_t seed) {
  std::vector<Session> sessions = MakeSessions(tasks, seed, kTrialsPerTask);
  support::Rng rng(seed ^ 0x5c4ed01e5eedULL);
  rng.Shuffle(sessions);
  const double span_s = static_cast<double>(sessions.size()) / kRequestsPerS;
  std::vector<int64_t> offsets;
  for (size_t i = 0; i < sessions.size(); ++i) {
    offsets.push_back(static_cast<int64_t>(rng.NextDouble() * span_s * 1e9));
  }
  std::sort(offsets.begin(), offsets.end());
  std::vector<Planned> plan(sessions.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    plan[i].session = sessions[i];
    plan[i].offset_ns = offsets[i];
    plan[i].tenant = "tenant" + std::to_string(rng.NextBelow(kTenants));
  }
  return plan;
}

// The client's ends of the two pipes.
class Client {
 public:
  Client(int request_fd, int response_fd) : request_fd_(request_fd), response_fd_(response_fd) {}

  bool Send(const std::string& frame) {
    size_t done = 0;
    while (done < frame.size()) {
      const ssize_t n = write(request_fd_, frame.data() + done, frame.size() - done);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      done += static_cast<size_t>(n);
    }
    return true;
  }

  void CloseRequests() {
    if (request_fd_ >= 0) {
      close(request_fd_);
      request_fd_ = -1;
    }
  }

  // Waits up to `wait_ns` for response bytes and appends every complete
  // frame to `frames`. False at end of stream or on a transport error.
  bool Receive(int64_t wait_ns, std::vector<std::string>* frames) {
    pollfd pfd{response_fd_, POLLIN, 0};
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    const int ready = ppoll(&pfd, 1, &timeout, nullptr);
    if (ready < 0) {
      return errno == EINTR;
    }
    if (ready == 0) {
      return true;
    }
    char chunk[1 << 16];
    const ssize_t n = read(response_fd_, chunk, sizeof(chunk));
    if (n < 0) {
      return errno == EINTR;
    }
    if (n == 0) {
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    for (;;) {
      auto frame = serve::DecodeFrame(buffer_, &offset_);
      if (!frame.ok()) {
        return false;
      }
      if (!frame->has_value()) {
        break;
      }
      frames->push_back(std::move(**frame));
    }
    if (offset_ > 0 && offset_ * 2 >= buffer_.size()) {
      buffer_.erase(0, offset_);
      offset_ = 0;
    }
    return true;
  }

 private:
  int request_fd_;
  int response_fd_;
  std::string buffer_;
  size_t offset_ = 0;
};

// What one replay of the schedule measured.
struct ReplayResult {
  std::vector<double> latency_ms;  // scheduled send -> response read
  std::vector<double> service_ms;  // server-side total_ms - queue_ms
  std::vector<double> queue_ms;
  std::vector<double> late_ms;     // actual send - scheduled send
  double cpu_us_per_session = 0.0;
  uint64_t failed = 0;             // missing, duplicate, non-OK, stray or mismatched
  std::vector<jsonv::Value> runs;  // response "run" objects by schedule index
};

ReplayResult RunReplay(Client& client, const std::vector<Planned>& plan, uint64_t id_base,
                       bool* transport_ok) {
  const size_t n = plan.size();
  std::vector<std::string> frames(n);
  for (size_t i = 0; i < n; ++i) {
    serve::Request request;
    request.request_id = id_base + i + 1;
    request.tenant = plan[i].tenant;
    request.task_id = plan[i].session.task->id;
    request.seed = plan[i].session.seed;
    serve::AppendFrame(frames[i], serve::RequestJson(request).Dump());
  }
  ReplayResult r;
  r.late_ms.resize(n);
  std::vector<std::pair<int64_t, std::string>> arrivals;
  arrivals.reserve(n);
  std::vector<std::string> got;

  const int64_t cpu0 = ProcessCpuNs();
  const int64_t client0 = ThreadCpuNs();
  const int64_t origin = NowNs() + kLeadNs;
  size_t next = 0;
  while (arrivals.size() < n) {
    int64_t now = NowNs();
    while (next < n && origin + plan[next].offset_ns <= now) {
      r.late_ms[next] = static_cast<double>(now - origin - plan[next].offset_ns) / 1e6;
      if (!client.Send(frames[next])) {
        *transport_ok = false;
        break;
      }
      ++next;
      now = NowNs();
    }
    if (!*transport_ok || now > origin + plan.back().offset_ns + kStallNs) {
      break;
    }
    const int64_t wait = next < n ? origin + plan[next].offset_ns - now : 50'000'000;
    got.clear();
    if (!client.Receive(wait, &got)) {
      *transport_ok = false;
      break;
    }
    const int64_t read_at = NowNs();
    for (std::string& payload : got) {
      arrivals.emplace_back(read_at, std::move(payload));
    }
  }
  const int64_t client_cpu = ThreadCpuNs() - client0;
  const int64_t process_cpu = ProcessCpuNs() - cpu0;
  r.cpu_us_per_session = static_cast<double>(process_cpu - client_cpu) / 1e3 / n;

  // Attribute responses to schedule slots after the replay, so the client
  // thread does no parsing while the schedule runs.
  std::vector<int> answers(n, 0);
  r.runs.assign(n, jsonv::Value());
  for (const auto& [read_at, payload] : arrivals) {
    auto parsed = jsonv::Parse(payload);
    const uint64_t id = parsed.ok() ? static_cast<uint64_t>(parsed->GetInt("request_id")) : 0;
    if (id <= id_base || id > id_base + n) {
      ++r.failed;  // stray frame
      continue;
    }
    const size_t i = id - id_base - 1;
    ++answers[i];
    const jsonv::Value* status = parsed->Find("status");
    const jsonv::Value* run = parsed->Find("run");
    if (status == nullptr || status->GetString("code") != "OK" || run == nullptr) {
      continue;  // counted below as not answered OK
    }
    const double total = parsed->GetDouble("total_ms");
    const double queue = parsed->GetDouble("queue_ms");
    r.latency_ms.push_back(static_cast<double>(read_at - origin - plan[i].offset_ns) / 1e6);
    r.service_ms.push_back(total - queue);
    r.queue_ms.push_back(queue);
    r.runs[i] = *run;
  }
  for (size_t i = 0; i < n; ++i) {
    if (answers[i] != 1 || r.runs[i].is_null()) {
      ++r.failed;
    }
  }
  return r;
}

double MinOf(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double MaxOf(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

// The per-layer metrics this measurement is the source of, with their units.
const std::vector<std::pair<std::string, std::string>>& ServingLayers() {
  static const std::vector<std::pair<std::string, std::string>> layers = {
      {"agent.batch_flush_us", "us"},    {"dmi.locate_retries", "per_session"},
      {"dmi.click_retries", "per_session"}, {"dmi.model_load_ms", "ms"},
      {"serve.latency_p50_ms", "ms"},     {"serve.latency_p99_ms", "ms"},
      {"serve.queue_p50_ms", "ms"},       {"serve.queue_p99_ms", "ms"},
      {"serve.service_p50_ms", "ms"},     {"serve.service_p99_ms", "ms"},
      {"serve.cpu_us_per_session", "us"}, {"serve.encode_us", "us"},
      {"serve.parse_us", "us"},           {"serve.send_late_p99_ms", "ms"},
      {"serve.peak_outstanding", "sessions"},
  };
  return layers;
}

}  // namespace

void FillServingLayers(Metrics* metrics) {
  for (const auto& [name, unit] : ServingLayers()) {
    metrics->try_emplace(name, Metric{0.0, unit});
  }
}

Outcome MeasureServing(const Args& args) {
  Outcome out;
  const std::vector<workload::Task> tasks = workload::BuildOsworldWSuite();
  const std::vector<Planned> plan = MakeSchedule(tasks, args.seed);
  const size_t n = plan.size();
  support::TraceRecorder& recorder = support::TraceRecorder::Global();
  LayerInputs layers;

  dmi::ServiceConfig config;
  config.mode = "dmi";
  config.model = "gpt5";
  config.policy = "hostile";
  config.batch_size = kBatchSize;
  config.max_in_flight = kMaxInFlight;
  config.queue_capacity = static_cast<int>(2 * plan.size());
  config.model_dir = args.work_dir + "/serve_models";
  const support::Status valid = config.Validate();
  if (!valid.ok()) {
    std::printf("config: %s\n", valid.ToString().c_str());
    out.correct = false;
    out.attempted = 1;
    out.failed = 1;
    return out;
  }

  // ----- set-up ---------------------------------------------------------------------
  // The artifact store is written first; the set-ups cold-load it.
  {
    agentsim::TaskRunner writer;
    writer.SetModelDir(config.model_dir);
    for (const workload::Task* task : OnePerKind(tasks)) {
      (void)writer.modeling_stats(task->app);
    }
  }
  (void)recorder.Drain();
  std::unique_ptr<serve::SessionManager> manager;
  recorder.SetEnabled(true);
  for (int i = 0; i < kSetups; ++i) {
    manager.reset();
    manager = std::make_unique<serve::SessionManager>(config);
    manager->PrewarmModels();
  }
  recorder.SetEnabled(false);
  DrainInto(&layers.setup_spans);
  layers.loads = kSetups;

  // ----- the daemon over a pipe pair ------------------------------------------------
  int request_pipe[2] = {-1, -1};
  int response_pipe[2] = {-1, -1};
  std::FILE* serve_in = nullptr;
  std::FILE* serve_out = nullptr;
  if (pipe(request_pipe) == 0 && pipe(response_pipe) == 0) {
    serve_in = fdopen(request_pipe[0], "rb");
    serve_out = fdopen(response_pipe[1], "wb");
  }
  if (serve_in == nullptr || serve_out == nullptr) {
    std::printf("pipes: %s\n", std::strerror(errno));
    out.correct = false;
    out.attempted = 1;
    out.failed = 1;
    return out;
  }
  support::Status serve_status = support::Status::Ok();
  std::thread server([&] {
    auto stats = serve::ServeLoop(serve_in, serve_out, *manager);
    serve_status = stats.status();
    std::fclose(serve_out);
  });
  Client client(request_pipe[1], response_pipe[0]);

  // ----- traced replays -------------------------------------------------------------
  std::vector<ReplayResult> replays;
  std::vector<std::optional<uint64_t>> first_fingerprint(n);
  bool transport_ok = true;
  layers.counters.Start();
  for (int k = 0; k < kReplays && transport_ok; ++k) {
    recorder.SetEnabled(true);
    ReplayResult r = RunReplay(client, plan, static_cast<uint64_t>(k) * n, &transport_ok);
    recorder.SetEnabled(false);
    DrainInto(&layers.spans);
    // Every replay of a seeded session must reproduce the first replay's run.
    for (size_t i = 0; i < n; ++i) {
      if (r.runs[i].is_null()) {
        continue;
      }
      const uint64_t fingerprint = RunFingerprint(r.runs[i]);
      if (!first_fingerprint[i].has_value()) {
        first_fingerprint[i] = fingerprint;
      } else if (fingerprint != *first_fingerprint[i]) {
        ++r.failed;
      }
    }
    r.runs.clear();
    out.failed += r.failed;
    out.attempted += n;
    std::printf("serving replay %d: p50 %.3f ms, p99 %.3f ms, service p99 %.3f ms, "
                "%.1f us cpu/session, generator late p99 %.3f ms max %.3f ms\n",
                k, Percentile(r.latency_ms, 0.50), Percentile(r.latency_ms, 0.99),
                Percentile(r.service_ms, 0.99), r.cpu_us_per_session,
                Percentile(r.late_ms, 0.99), MaxOf(r.late_ms));
    replays.push_back(std::move(r));
  }
  layers.counters.Stop();

  // Closing the request pipe is the drain signal; the loop answers whatever
  // is still in flight, then the response pipe reaches end of stream.
  client.CloseRequests();
  std::vector<std::string> leftover;
  while (client.Receive(1'000'000'000, &leftover)) {
  }
  server.join();
  std::fclose(serve_in);
  close(response_pipe[0]);
  out.failed += leftover.size();
  if (!transport_ok || !serve_status.ok()) {
    std::printf("transport failed: %s\n", serve_status.ToString().c_str());
    out.failed += 1;
  }

  // ----- direct-run check -----------------------------------------------------------
  agentsim::TaskRunner direct;
  direct.SetModelDir(config.model_dir);
  const agentsim::RunConfig& run_config = manager->run_config();
  if (run_config.batch.enabled) {
    direct.batch_scheduler().Configure(run_config.batch);
  }
  std::vector<Session> sample;
  std::vector<agentsim::RunResult> sample_runs;
  uint64_t direct_mismatches = 0;
  for (size_t k = 0; k < kDirectSample && !replays.empty(); ++k) {
    const size_t i = k * n / kDirectSample;
    agentsim::RunResult run =
        direct.RunOnce(*plan[i].session.task, run_config, plan[i].session.seed);
    direct_mismatches += first_fingerprint[i] != RunFingerprint(run) ? 1 : 0;
    sample.push_back(plan[i].session);
    sample_runs.push_back(std::move(run));
  }
  out.failed += direct_mismatches;
  out.correct = out.failed == 0 && static_cast<int>(replays.size()) == kReplays;

  std::vector<double> late_p99;
  std::vector<double> late_max;
  for (const ReplayResult& r : replays) {
    late_p99.push_back(Percentile(r.late_ms, 0.99));
    late_max.push_back(MaxOf(r.late_ms));
  }
  std::printf("serving: %zu requests x %zu replays at %.0f/s, hostile policy; generator "
              "lateness: p99 %.3f ms (worst replay), max %.3f ms\n",
              n, replays.size(), kRequestsPerS, MaxOf(late_p99), MaxOf(late_max));
  std::printf("serving checks: %llu failed operations (%llu direct-run mismatches in %zu "
              "sampled)\n",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(direct_mismatches), sample.size());

  // ----- layers ---------------------------------------------------------------------
  layers.span_sessions = static_cast<double>(n * replays.size());
  layers.counter_sessions = static_cast<double>(n * replays.size());
  layers.probes = RunProbes(manager->runner(), run_config, sample, sample_runs);
  Metrics all;
  AddLayerMetrics(layers, &all);
  const auto best = [&replays](auto value) {
    std::vector<double> values;
    for (const ReplayResult& r : replays) {
      values.push_back(value(r));
    }
    return MinOf(values);
  };
  const auto percentile = [&best](std::vector<double> ReplayResult::*field, double q) {
    return best([field, q](const ReplayResult& r) { return Percentile(r.*field, q); });
  };
  all["serve.latency_p50_ms"] = {percentile(&ReplayResult::latency_ms, 0.50), "ms"};
  all["serve.latency_p99_ms"] = {percentile(&ReplayResult::latency_ms, 0.99), "ms"};
  all["serve.queue_p50_ms"] = {percentile(&ReplayResult::queue_ms, 0.50), "ms"};
  all["serve.queue_p99_ms"] = {percentile(&ReplayResult::queue_ms, 0.99), "ms"};
  all["serve.service_p50_ms"] = {percentile(&ReplayResult::service_ms, 0.50), "ms"};
  all["serve.service_p99_ms"] = {percentile(&ReplayResult::service_ms, 0.99), "ms"};
  all["serve.send_late_p99_ms"] = {percentile(&ReplayResult::late_ms, 0.99), "ms"};
  all["serve.cpu_us_per_session"] = {
      best([](const ReplayResult& r) { return r.cpu_us_per_session; }), "us"};
  all["serve.peak_outstanding"] = {static_cast<double>(manager->stats().peak_outstanding),
                                   "sessions"};
  for (const auto& [name, unit] : ServingLayers()) {
    out.metrics[name] = all[name];
  }
  return out;
}

}  // namespace perfbench
