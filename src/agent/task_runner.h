// TaskRunner: the experiment harness behind every end-to-end table/figure.
//
// Models each application once (offline phase, cached), then runs tasks under
// a setting = (interface mode, LLM profile, instability level, robustness
// toggles), repeating each task and aggregating the paper's metrics: SR,
// Steps (LLM calls), Time (simulated), tokens, one-shot share, and the
// failure-cause distribution.
#ifndef SRC_AGENT_TASK_RUNNER_H_
#define SRC_AGENT_TASK_RUNNER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/agent/baseline_agent.h"
#include "src/agent/batch_scheduler.h"
#include "src/agent/dmi_agent.h"
#include "src/agent/llm_profile.h"
#include "src/agent/run_result.h"
#include "src/dmi/compiled_model.h"
#include "src/dmi/model_registry.h"
#include "src/dmi/session.h"
#include "src/dmi/visit.h"
#include "src/gui/instability.h"
#include "src/support/retry.h"
#include "src/workload/app_pool.h"
#include "src/workload/tasks.h"

namespace agentsim {

enum class InterfaceMode {
  kGuiOnly,        // UFO2-as baseline
  kGuiOnlyForest,  // baseline + navigation forest as prompt knowledge (§5.5)
  kGuiPlusDmi,     // UFO2-as + DMI (our approach)
};

const char* InterfaceModeName(InterfaceMode mode);

// The agent layer's resolved view of a setting (RunOnce and RunSuite read
// it). Outside the tests every RunConfig comes out of
// agentsim::RunConfigFromService (service_adapter.h), which resolves a
// validated dmi::ServiceConfig once; nothing else fills one in. Tests adjust
// one to inject a fake (a perfect LlmProfile, the unpooled reference).
struct RunConfig {
  InterfaceMode mode = InterfaceMode::kGuiOnly;
  LlmProfile profile = LlmProfile::Gpt5Medium();
  uint64_t seed = 1;
  int repeats = 3;  // paper: each task run three times, averaged
  int step_cap = 30;
  gsim::InstabilityConfig instability = gsim::InstabilityConfig::Typical();
  dmi::VisitConfig visit;  // §5.6 toggles + the preset's retry schedule
  // Worker threads for RunSuite: 1 = serial (default), 0 = one per hardware
  // thread, N = exactly N. Each (task, trial) run is seeded independently of
  // execution order, so the suite result is identical for any worker count.
  int workers = 1;
  // Lease pooled application instances (factory-reset between runs) instead
  // of constructing a fresh app per run. Pooled and unpooled suites produce
  // byte-identical results — the pool's reset-equivalence contract is
  // checksum-verified in debug builds (DESIGN.md §10). Always on outside the
  // tests, which turn it off for the unpooled reference.
  bool pool_apps = true;
  // Per-run tick budget (DESIGN.md §11). 0 = unlimited. DMI mode only: the
  // session's executor refuses commands past the budget and the agent runs
  // one graceful re-describe pass before reporting kDeadlineExceeded.
  uint64_t run_deadline_ticks = 0;
  // Typed retry schedule for the interaction interfaces (DMI mode). Left
  // unset, transient interaction failures fail fast (legacy behavior).
  support::RetryPolicy interaction_retry;
  // Capture RenderJson() of the last visit report into each RunResult
  // (dmi_run --report-json pays this; everything else leaves it off).
  bool capture_report_json = false;
  // Fleet-scale inference batching (DESIGN.md §12). When enabled, every
  // simulated LLM call is also submitted to the runner's BatchScheduler,
  // which coalesces concurrent sessions' calls per shared prompt prefix and
  // reports the continuous-batching economics on batch.* metrics and
  // TaskRunner::batch_stats(). Observational by construction: RunResults and
  // SuiteResults are field-identical with batching on or off, at any batch
  // size (tested, including under Harsh/Hostile policies).
  BatchOptions batch;
  // `policy` label stamped on the labeled agent.* metrics (DESIGN.md §13):
  // the --policy preset's name, empty = unlabeled dimension.
  std::string policy_label;
};

struct TaskRecord {
  std::string task_id;
  std::vector<RunResult> runs;
};

struct SuiteResult {
  std::vector<TaskRecord> records;

  double SuccessRate() const;
  // Steps/Time averaged over successful runs only (paper Table 3 convention).
  double AvgStepsSuccessful() const;
  double AvgTimeSuccessful() const;
  double AvgPromptTokensSuccessful() const;
  double AvgTotalTokensSuccessful() const;
  double AvgUiActionsSuccessful() const;
  // Share of successful runs completed in <= `core_calls` core LLM calls
  // (core 1 == the paper's "4 steps" one-shot completion).
  double OneShotShare(int core_calls = 1) const;
  // Task ids solved in the majority of runs.
  std::set<std::string> SolvedTasks() const;
  // Task ids solved in at least one run ("solvable").
  std::set<std::string> SolvableTasks() const;
  // Average steps over successful runs of the given tasks (for the
  // intersection normalization of Figure 5b).
  double AvgStepsOnTasks(const std::set<std::string>& ids) const;
  std::map<FailureCause, int> FailureDistribution() const;
  int TotalRuns() const;
  int FailedRuns() const;
};

class TaskRunner {
 public:
  TaskRunner();

  // One run of one task under the setting, with an explicit trial seed.
  RunResult RunOnce(const workload::Task& task, const RunConfig& config, uint64_t seed);

  // Full suite, `config.repeats` trials per task. With `config.workers` > 1
  // and `config.batch.enabled`, this is the concurrent multi-session fleet
  // mode: worker threads run sessions that share one CompiledModel per app
  // kind (single static-prompt copy), lease pooled apps, and coalesce their
  // LLM calls in the batch scheduler; partial batches are flushed at suite
  // end.
  SuiteResult RunSuite(const std::vector<workload::Task>& tasks, const RunConfig& config);

  // The fleet batching scheduler (populated by runs with batch.enabled).
  // Reset() it between suites for per-suite accounting; stats() otherwise
  // accumulate across the runner's lifetime.
  BatchScheduler& batch_scheduler() { return batch_scheduler_; }
  BatchScheduler::Stats batch_stats() const { return batch_scheduler_.stats(); }

  // The kind's current model, resolved through the runner's registry: a
  // memo hit, an artifact load, or the offline pipeline (rip + compile).
  // Shared ownership: callers copy the pointer out and keep using the model
  // even if RefreshModel republishes the kind mid-run.
  std::shared_ptr<const dmi::CompiledModel> ModelFor(workload::AppKind kind);

  // Offline-phase results (§5.2): ModelFor(kind)->stats(). The reference
  // stays valid while the registry holds the model; a Prune after a
  // RefreshModel of the kind may drop it.
  const dmi::ModelingStats& modeling_stats(workload::AppKind kind);

  // The modeling configuration shared by all settings, built once per
  // process.
  static const dmi::ModelingOptions& DefaultModelingOptions(workload::AppKind kind);

  // Replaces the runner's registry with one rooted at the binary artifact
  // store `dir` (DESIGN.md §14; empty = no store, an in-process memo): ModelFor
  // then cold-loads a checksum-verified artifact when one exists, and rips
  // and compiles with save-through when it doesn't. `app_version` is the
  // version every kind resolves to until RefreshModel publishes another.
  // Call before the first run: the replaced registry's models are dropped.
  void SetModelDir(std::string dir, std::string app_version = "1");

  // The runner's one store of compiled models (never null).
  const dmi::ModelRegistry* model_registry() const { return registry_.get(); }
  // Non-const registry access (tests wire a flight recorder, call Prune).
  dmi::ModelRegistry* mutable_model_registry() { return registry_.get(); }

  // Live model swap (DESIGN.md §15): delta-rips the updated application build
  // produced by `factory` against the kind's current model's ripped graph
  // and checksum table (resolving that model first, like a run would),
  // compiles the result, and atomically publishes it as `kind`'s model under
  // `new_version` through ModelRegistry::Refresh (save-through to the store,
  // if any, and registry.delta_* stats). Zero-downtime: the delta rip holds
  // no registry lock, runs already in flight hold a shared_ptr to the old
  // model and finish on it; runs started after this returns see the new
  // model, and pooled app leases construct the new build (old-build
  // instances are destroyed on return, never re-shelved).
  support::Status RefreshModel(workload::AppKind kind, const std::string& new_version,
                               workload::AppPool::Factory factory);

  // The shared application pool (tests probe shelf state across swaps).
  workload::AppPool& app_pool() { return app_pool_; }

 private:
  // The uninstrumented run body; RunOnce wraps it in the run's trace scope +
  // span and publishes the result onto the agent.* counters/histograms.
  // `run_id` keys the run's flight recorder (and the installed TraceContext).
  RunResult RunOnceInternal(const workload::Task& task, const RunConfig& config,
                            uint64_t seed, uint64_t run_id);

  // The runner's one store of compiled models: a registry with no artifact
  // store until SetModelDir replaces it. Thread-safe.
  std::unique_ptr<dmi::ModelRegistry> registry_;
  // Reset-based application pool shared by all runs (thread-safe; see
  // workload::AppPool). Unpooled runs go through it too, as throwaway leases.
  workload::AppPool app_pool_;
  // Fleet batching accounting shared by all concurrent runs (thread-safe).
  BatchScheduler batch_scheduler_;
};

}  // namespace agentsim

#endif  // SRC_AGENT_TASK_RUNNER_H_
