// serve::SessionManager — the multi-tenant serving core of dmi_serve
// (DESIGN.md §16).
//
// One resident SessionManager multiplexes thousands of concurrent agent
// sessions over the process's shared substrate: models resolve once per app
// kind through the runner's dmi::ModelRegistry, application instances come
// from the reset-based workload::AppPool, and LLM calls coalesce in the
// fleet BatchScheduler — everything PRs 4–9 made shareable, finally behind a
// service boundary.
//
// Admission pipeline per Submit():
//   1. task lookup        — unknown task id  -> kNotFound
//   2. drain gate         — shutting down    -> kUnavailable
//   3. capacity           — queue full       -> kResourceExhausted
//   4. tenant quotas      — concurrent cap or token budget spent
//                                            -> kResourceExhausted
//   5. enqueue            — a worker thread picks the session up FIFO and
//                           runs it to a verdict; the callback fires exactly
//                           once with the Response.
// Rejections are synchronous, typed, and never throw away an accepted
// session; acceptance means the callback will fire (with a run verdict, or a
// typed kCancelled if the daemon drains first).
//
// Tenant accounting is authoritative inside the manager (mutex-guarded
// maps) and mirrored onto the labeled metrics registry — session.admitted /
// session.rejected{tenant,reason} / session.tokens{tenant} — so a metrics
// scrape reconciles exactly with the typed statuses callers saw
// (tested in tests/serve_test.cc).
//
// Graceful drain (Shutdown): intake closes, queued sessions get typed
// kCancelled responses immediately, in-flight runs finish on their worker
// and deliver normally, then workers join. The destructor drains too, so a
// scoped SessionManager never strands a callback.
#ifndef SRC_SERVE_SESSION_MANAGER_H_
#define SRC_SERVE_SESSION_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/agent/task_runner.h"
#include "src/dmi/service_config.h"
#include "src/serve/report_schema.h"
#include "src/support/status.h"
#include "src/workload/tasks.h"

namespace serve {

class SessionManager {
 public:
  // `config` must be Validate()-ok. Sessions run under its RunConfig
  // resolution; the serving knobs (max_in_flight worker threads,
  // queue_capacity, and the per-tenant quotas tenant_max_concurrent and
  // tenant_token_budget) are read from it. Worker threads start immediately.
  explicit SessionManager(const dmi::ServiceConfig& config);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  using Callback = std::function<void(Response)>;

  // Admits or rejects `request`. On Ok the callback fires exactly once from
  // a worker (or drain) thread; on error the callback never fires and the
  // typed status tells the caller why (kNotFound / kUnavailable /
  // kResourceExhausted). Thread-safe; callbacks may Submit re-entrantly
  // (closed-loop load generators do).
  support::Status Submit(Request request, Callback done);

  // Blocking convenience for tests and simple clients: Submit + wait. A
  // rejection comes back as a Response carrying the typed status.
  Response Run(Request request);

  // Graceful drain: closes intake, delivers typed kCancelled responses to
  // every queued session, lets in-flight sessions finish, joins workers.
  // Idempotent.
  void Shutdown();

  // Resolves models for every app kind in the task table and prewarms the
  // app pool to max_in_flight instances per kind — the daemon's startup
  // phase, so the first thousand sessions don't stampede the offline
  // pipeline.
  void PrewarmModels();

  struct Stats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_tenant_concurrent = 0;
    uint64_t rejected_tenant_tokens = 0;
    uint64_t rejected_draining = 0;
    uint64_t completed = 0;      // ran to a verdict (success or failure)
    uint64_t failed_runs = 0;    // completed with run.success == false
    uint64_t cancelled = 0;      // queued sessions dropped by drain
    uint64_t peak_outstanding = 0;  // max queued + running ever observed
    int64_t tokens_served = 0;   // prompt + output over completed sessions
  };
  Stats stats() const;

  // Current queued + running sessions (load generators track saturation).
  size_t Outstanding() const;

  // The shared substrate, exposed for tests and perfbench (model
  // registry probes, batch stats, direct-run equivalence checks).
  agentsim::TaskRunner& runner() { return runner_; }
  const agentsim::RunConfig& run_config() const { return run_config_; }

  // Test-only: invoked on the worker thread right before a session runs.
  // Lets admission tests hold workers at a barrier deterministically.
  void SetBeforeRunHookForTest(std::function<void(const Request&)> hook);

 private:
  struct Queued {
    Request request;
    Callback done;
    int64_t submit_us = 0;  // TraceNowUs at admission
  };

  void WorkerLoop();
  // Runs one admitted session to a verdict and builds its response.
  Response Execute(const Queued& item, int64_t dequeue_us);
  // Fires `done(response)` after closing out the session's accounting.
  void Finish(const Queued& item, Response response);

  const dmi::ServiceConfig config_;
  const agentsim::RunConfig run_config_;
  // Task table: id -> suite task (the daemon serves the OSWorld-W suite).
  std::vector<workload::Task> tasks_;
  std::map<std::string, const workload::Task*> task_by_id_;
  agentsim::TaskRunner runner_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Queued> queue_;
  bool stopping_ = false;
  size_t running_ = 0;
  // Per-tenant accounting (authoritative; labeled counters mirror it).
  std::map<std::string, int> tenant_active_;     // queued + running
  std::map<std::string, int64_t> tenant_tokens_; // completed-session spend
  Stats stats_;
  std::function<void(const Request&)> before_run_hook_;
  // Serializes Shutdown (drain + join) so the destructor and an explicit
  // Shutdown from another thread never double-join the workers.
  std::mutex shutdown_mu_;
  std::vector<std::thread> workers_;
};

}  // namespace serve

#endif  // SRC_SERVE_SESSION_MANAGER_H_
