#include "src/serve/session_manager.h"

#include <future>
#include <set>
#include <utility>

#include "src/agent/service_adapter.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace serve {
namespace {

// Tenant names come off the wire; label values must avoid the metric
// encoding's structural characters ('{', '}', ',', '=').
std::string LabelSafe(const std::string& raw) {
  std::string out = raw;
  for (char& c : out) {
    if (c == '{' || c == '}' || c == ',' || c == '=') {
      c = '_';
    }
  }
  return out;
}

void CountRejected(const std::string& tenant, const char* reason) {
  support::CountMetric("session.rejected");
  support::CountMetric("session.rejected",
                       {{"tenant", LabelSafe(tenant)}, {"reason", reason}});
}

double MsSince(int64_t start_us, int64_t now_us) {
  return static_cast<double>(now_us - start_us) / 1000.0;
}

}  // namespace

SessionManager::SessionManager(const dmi::ServiceConfig& config)
    : config_(config), run_config_(agentsim::RunConfigFromService(config)) {
  // The manager is the concurrency layer: each session is one RunOnce on one
  // worker thread, which reads none of the suite-level fan-out knobs.
  tasks_ = workload::BuildOsworldWSuite();
  for (const workload::Task& task : tasks_) {
    task_by_id_.emplace(task.id, &task);
  }
  runner_.SetModelDir(config.model_dir, config.app_version);
  if (run_config_.batch.enabled) {
    runner_.batch_scheduler().Configure(run_config_.batch);
  }
  workers_.reserve(static_cast<size_t>(config_.max_in_flight));
  for (int i = 0; i < config_.max_in_flight; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SessionManager::~SessionManager() { Shutdown(); }

support::Status SessionManager::Submit(Request request, Callback done) {
  if (done == nullptr) {
    return support::InvalidArgumentError("Submit: null callback");
  }
  if (request.tenant.empty()) {
    request.tenant = "default";
  }
  support::CountMetric("session.submitted");
  const auto task_it = task_by_id_.find(request.task_id);
  if (task_it == task_by_id_.end()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    return support::NotFoundError("no task with id '" + request.task_id + "'");
  }
  const std::string tenant = request.tenant;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (stopping_) {
      ++stats_.rejected_draining;
      CountRejected(tenant, "draining");
      return support::UnavailableError("session manager is draining");
    }
    // System capacity = sessions running (max_in_flight workers) + sessions
    // waiting (queue_capacity). Everything past that is a typed rejection —
    // the caller sheds load instead of the daemon growing an unbounded queue.
    const size_t capacity = static_cast<size_t>(config_.max_in_flight) +
                            static_cast<size_t>(config_.queue_capacity);
    const size_t outstanding = queue_.size() + running_;
    if (outstanding >= capacity) {
      ++stats_.rejected_queue_full;
      CountRejected(tenant, "queue_full");
      return support::ResourceExhaustedError(
          "admission queue full (" + std::to_string(outstanding) + " outstanding, capacity " +
          std::to_string(capacity) + ")");
    }
    if (config_.tenant_max_concurrent > 0 &&
        tenant_active_[tenant] >= config_.tenant_max_concurrent) {
      ++stats_.rejected_tenant_concurrent;
      CountRejected(tenant, "tenant_concurrent");
      return support::ResourceExhaustedError(
          "tenant '" + tenant + "' concurrent-session quota (" +
          std::to_string(config_.tenant_max_concurrent) + ") exhausted");
    }
    if (config_.tenant_token_budget > 0 &&
        tenant_tokens_[tenant] >= config_.tenant_token_budget) {
      ++stats_.rejected_tenant_tokens;
      CountRejected(tenant, "tenant_tokens");
      return support::ResourceExhaustedError(
          "tenant '" + tenant + "' token budget (" +
          std::to_string(config_.tenant_token_budget) + ") exhausted");
    }
    ++stats_.admitted;
    ++tenant_active_[tenant];
    Queued item;
    item.request = std::move(request);
    item.done = std::move(done);
    item.submit_us = support::TraceNowUs();
    queue_.push_back(std::move(item));
    const uint64_t now_outstanding = static_cast<uint64_t>(queue_.size() + running_);
    if (now_outstanding > stats_.peak_outstanding) {
      stats_.peak_outstanding = now_outstanding;
    }
  }
  support::CountMetric("session.admitted");
  support::CountMetric("session.admitted", {{"tenant", LabelSafe(tenant)}});
  work_cv_.notify_one();
  return support::Status::Ok();
}

Response SessionManager::Run(Request request) {
  auto state = std::make_shared<std::promise<Response>>();
  std::future<Response> pending = state->get_future();
  Request copy = request;
  const support::Status admitted =
      Submit(std::move(request), [state](Response response) {
        state->set_value(std::move(response));
      });
  if (!admitted.ok()) {
    Response response;
    response.request_id = copy.request_id;
    response.tenant = copy.tenant.empty() ? "default" : copy.tenant;
    response.task_id = copy.task_id;
    response.status = admitted;
    return response;
  }
  return pending.get();
}

void SessionManager::WorkerLoop() {
  for (;;) {
    Queued item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    const int64_t dequeue_us = support::TraceNowUs();
    support::ObserveMetric("session.queue_ms", MsSince(item.submit_us, dequeue_us));
    std::function<void(const Request&)> hook;
    {
      std::lock_guard<std::mutex> lock(mu_);
      hook = before_run_hook_;
    }
    if (hook) {
      hook(item.request);
    }
    Response response = Execute(item, dequeue_us);
    Finish(item, std::move(response));
  }
}

Response SessionManager::Execute(const Queued& item, int64_t dequeue_us) {
  Response response;
  response.request_id = item.request.request_id;
  response.tenant = item.request.tenant;
  response.task_id = item.request.task_id;
  response.queue_ms = MsSince(item.submit_us, dequeue_us);
  response.status = support::Status::Ok();
  const workload::Task* task = task_by_id_.at(item.request.task_id);
  response.result = runner_.RunOnce(*task, run_config_, item.request.seed);
  response.run_id = response.result.run_id;
  return response;
}

void SessionManager::Finish(const Queued& item, Response response) {
  const int64_t now_us = support::TraceNowUs();
  response.total_ms = MsSince(item.submit_us, now_us);
  const int64_t tokens = static_cast<int64_t>(response.result.prompt_tokens) +
                         static_cast<int64_t>(response.result.output_tokens);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    --tenant_active_[item.request.tenant];
    tenant_tokens_[item.request.tenant] += tokens;
    ++stats_.completed;
    stats_.tokens_served += tokens;
    if (!response.result.success) {
      ++stats_.failed_runs;
    }
  }
  support::CountMetric("session.completed");
  support::CountMetric("session.completed", {{"tenant", LabelSafe(item.request.tenant)}});
  support::CountMetric("session.tokens", {{"tenant", LabelSafe(item.request.tenant)}},
                       static_cast<uint64_t>(tokens));
  if (!response.result.success) {
    support::CountMetric("session.failed_runs");
  }
  support::ObserveMetric("session.e2e_ms", response.total_ms);
  // Accounting is closed before the callback runs, so a closed-loop caller
  // re-submitting from inside it never collides with its own finished
  // session's quota slot.
  item.done(std::move(response));
}

void SessionManager::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  std::deque<Queued> cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    cancelled.swap(queue_);
    for (const Queued& item : cancelled) {
      --tenant_active_[item.request.tenant];
      ++stats_.cancelled;
    }
  }
  // Typed cancellation for everything that was admitted but never ran. The
  // callbacks fire on this thread, outside the manager lock, while in-flight
  // sessions keep running on their workers.
  const int64_t now_us = support::TraceNowUs();
  for (Queued& item : cancelled) {
    support::CountMetric("session.cancelled");
    support::CountMetric("session.cancelled", {{"tenant", LabelSafe(item.request.tenant)}});
    Response response;
    response.request_id = item.request.request_id;
    response.tenant = item.request.tenant;
    response.task_id = item.request.task_id;
    response.status = support::CancelledError("queued session cancelled by shutdown");
    response.queue_ms = MsSince(item.submit_us, now_us);
    response.total_ms = response.queue_ms;
    item.done(std::move(response));
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  if (run_config_.batch.enabled) {
    runner_.batch_scheduler().FlushAll();
  }
}

void SessionManager::PrewarmModels() {
  std::set<workload::AppKind> kinds;
  for (const workload::Task& task : tasks_) {
    if (kinds.insert(task.app).second) {
      // modeling_stats forces the offline pipeline (rip + compile, or a
      // registry cold load) for the kind; the pool prewarm fills the shelf
      // with reset-verified instances for every worker.
      (void)runner_.modeling_stats(task.app);
      runner_.app_pool().Prewarm(task, static_cast<size_t>(config_.max_in_flight));
    }
  }
}

SessionManager::Stats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SessionManager::Outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + running_;
}

void SessionManager::SetBeforeRunHookForTest(std::function<void(const Request&)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  before_run_hook_ = std::move(hook);
}

}  // namespace serve
