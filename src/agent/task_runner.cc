#include "src/agent/task_runner.h"

#include <algorithm>
#include <future>
#include <utility>

#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/support/logging.h"
#include "src/support/metrics.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace agentsim {
namespace {

std::unique_ptr<gsim::Application> MakeScratch(workload::AppKind kind) {
  switch (kind) {
    case workload::AppKind::kWord:
      return std::make_unique<apps::WordSim>();
    case workload::AppKind::kExcel:
      return std::make_unique<apps::ExcelSim>();
    case workload::AppKind::kPpoint:
      return std::make_unique<apps::PpointSim>();
  }
  return nullptr;
}

// "control localization / navigation error" -> control_localization_navigation_error
std::string FailureSlug(FailureCause cause) {
  std::string slug;
  bool pending_sep = false;
  for (char c : FailureCauseName(cause)) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      if (pending_sep && !slug.empty()) {
        slug += '_';
      }
      pending_sep = false;
      slug += c;
    } else {
      pending_sep = true;
    }
  }
  return slug;
}

std::string FailureMetricName(FailureCause cause) { return "agent.failure." + FailureSlug(cause); }

// Flight-recorder ring capacity per run (DESIGN.md §13); the recorder is
// always on.
constexpr size_t kFlightRecorderEvents = 128;

}  // namespace

const char* InterfaceModeName(InterfaceMode mode) {
  switch (mode) {
    case InterfaceMode::kGuiOnly:
      return "GUI-only";
    case InterfaceMode::kGuiOnlyForest:
      return "GUI-only+forest";
    case InterfaceMode::kGuiPlusDmi:
      return "GUI+DMI";
  }
  return "?";
}

TaskRunner::TaskRunner() = default;

dmi::ModelingOptions TaskRunner::DefaultModelingOptions(workload::AppKind kind) {
  dmi::ModelingOptions options;
  options.ripper_config.blocklist = {"Account", "Feedback"};
  if (kind == workload::AppKind::kPpoint) {
    ripper::RipContext image_context;
    image_context.name = "image-selected";
    image_context.setup = [](gsim::Application& a) {
      auto& pp = static_cast<apps::PpointSim&>(a);
      pp.SetCurrentSlide(2);
      gsim::Control* image = nullptr;
      pp.main_window().root().WalkStatic([&](gsim::Control& c) {
        if (image == nullptr && c.Type() == uia::ControlType::kImage && !c.IsOffscreen()) {
          image = &c;
        }
      });
      if (image != nullptr) {
        (void)a.Click(*image);
      }
    };
    options.contexts = {image_context};
  }
  if (kind == workload::AppKind::kExcel) {
    // Scrolled-viewport contexts: cells below/right of the initial viewport
    // only exist on screen after scrolling, so the modeler visits the grid at
    // several scroll positions (context-aware exploration, §4.1).
    for (double v : {45.0, 90.0}) {
      ripper::RipContext scrolled;
      scrolled.name = "scrolled-" + std::to_string(static_cast<int>(v));
      scrolled.setup = [v](gsim::Application& a) {
        auto& excel = static_cast<apps::ExcelSim&>(a);
        auto* scroll = uia::PatternCast<uia::ScrollPattern>(*excel.grid_control());
        if (scroll != nullptr) {
          (void)scroll->SetScrollPercent(100.0, v);
        }
      };
      options.contexts.push_back(scrolled);
    }
  }
  return options;
}

void TaskRunner::SetModelDir(std::string dir, std::string app_version) {
  std::lock_guard<std::mutex> lock(models_mutex_);
  registry_ = dir.empty() ? nullptr : std::make_unique<dmi::ModelRegistry>(std::move(dir));
  model_app_version_ = std::move(app_version);
}

std::shared_ptr<const dmi::CompiledModel> TaskRunner::ModelFor(workload::AppKind kind) {
  // Coarse lock: concurrent callers of an already-built model pay one probe;
  // a cold build holds the lock (RunSuite prebuilds before fanning out, so
  // workers never build).
  std::lock_guard<std::mutex> lock(models_mutex_);
  auto it = models_.find(kind);
  if (it != models_.end()) {
    return it->second;
  }
  dmi::ModelingOptions options = DefaultModelingOptions(kind);
  // The full offline pipeline (rip + compile). Compile keeps the ripped
  // graph and folds the rip stats and the app's subtree-checksum table in,
  // so the model is a self-contained record for its artifact and a valid
  // delta-rip baseline.
  auto pipeline = [&]() -> support::Result<std::shared_ptr<const dmi::CompiledModel>> {
    DMI_LOG(kInfo) << "modeling " << workload::AppKindName(kind) << " (offline phase)";
    std::unique_ptr<gsim::Application> scratch = MakeScratch(kind);
    // Checksums are taken on the pristine instance, before the ripper drives
    // it (the table is a pure function of static structure either way).
    const ripper::ChecksumTable checksums = ripper::ComputeSubtreeChecksums(*scratch);
    ripper::GuiRipper rip(*scratch, options.ripper_config);
    // Canonical layout is the modeling norm (same contract as the delta
    // rip): a delta splice lines node ids up against the baseline only when
    // both sides are canonical. A statement of its own, so the raw rip is
    // freed before the compile allocates.
    topo::NavGraph ripped = rip.Rip(options.contexts).Canonicalized();
    return dmi::CompiledModel::Compile(std::move(ripped), options, &rip.stats(), &checksums);
  };
  const auto vit = model_versions_.find(kind);
  const std::string& version = vit != model_versions_.end() ? vit->second : model_app_version_;
  std::shared_ptr<const dmi::CompiledModel> model;
  if (registry_ != nullptr) {
    // Artifact store attached: cold-load when possible, compile (with
    // save-through) when not. The registry's fallback makes a corrupt or
    // missing artifact a perf event, never a failure, so the non-Result
    // ModelFor contract holds.
    model = *registry_->Acquire(workload::AppKindName(kind), version, options, pipeline);
  } else {
    model = *pipeline();
  }
  models_[kind] = model;
  return model;
}

support::Status TaskRunner::RefreshModel(workload::AppKind kind, const std::string& new_version,
                                         workload::AppPool::Factory factory) {
  support::TraceSpan span("model.refresh", "model");
  span.AddArg("app", workload::AppKindName(kind));
  span.AddArg("version", new_version);
  // The baseline is resolved like any run's model (memo, artifact, or rip),
  // so it always carries the graph and checksum table the delta rip splices
  // against. The models lock is not held across the delta rip: workers keep
  // resolving the old model meanwhile, which is the whole point.
  const std::shared_ptr<const dmi::CompiledModel> baseline = ModelFor(kind);
  std::string old_version;
  {
    std::lock_guard<std::mutex> lock(models_mutex_);
    const auto vit = model_versions_.find(kind);
    old_version = vit != model_versions_.end() ? vit->second : model_app_version_;
  }
  dmi::ModelingOptions options = DefaultModelingOptions(kind);
  auto remodel = [&](const std::shared_ptr<const dmi::CompiledModel>&)
      -> support::Result<dmi::ModelRegistry::Remodeled> {
    ripper::DeltaRipOptions delta_options;
    delta_options.config = options.ripper_config;
    delta_options.extra_contexts = options.contexts;
    delta_options.app_factory = factory;
    support::Result<ripper::DeltaRipResult> delta =
        ripper::DeltaRip(delta_options, baseline->ripped(), baseline->subtree_checksums());
    if (!delta.ok()) {
      return delta.status();
    }
    return dmi::ModelRegistry::Remodeled{
        dmi::CompiledModel::Compile(std::move(delta->graph), options, &delta->stats,
                                    &delta->checksums),
        delta->nodes_reused};
  };
  support::Result<std::shared_ptr<const dmi::CompiledModel>> compiled =
      support::InvalidArgumentError("unreachable");
  if (registry_ != nullptr) {
    compiled = registry_->Refresh(workload::AppKindName(kind), old_version, new_version,
                                  options, remodel);
  } else {
    support::Result<dmi::ModelRegistry::Remodeled> remodeled = remodel(baseline);
    if (!remodeled.ok()) {
      return remodeled.status();
    }
    compiled = std::move(remodeled->model);
  }
  if (!compiled.ok()) {
    return compiled.status();
  }
  {
    std::lock_guard<std::mutex> lock(models_mutex_);
    models_[kind] = *compiled;
    model_versions_[kind] = new_version;
  }
  // Publish the new app build to the pool last: from here on, new leases
  // construct the updated app and stale old-build instances are discarded on
  // return. A worker that raced ModelFor before the publish above still pairs
  // the old model with an old-build instance only if it also acquired its
  // lease before this line — both orders are internally consistent.
  app_pool_.SetFactory(kind, std::move(factory));
  return support::Status::Ok();
}

const dmi::ModelingStats& TaskRunner::modeling_stats(workload::AppKind kind) {
  // The returned reference stays valid while the runner holds the model in
  // its map; a RefreshModel of the same kind invalidates it.
  return ModelFor(kind)->stats();
}

RunResult TaskRunner::RunOnce(const workload::Task& task, const RunConfig& config,
                              uint64_t seed) {
  // Allocate the run id unconditionally (one relaxed fetch_add): it keys the
  // flight recorder and the report entry even when tracing is off. The scope
  // installs {run_id, current span} so every span the run opens — including
  // spans opened on other threads via ThreadPool submission — carries it.
  const uint64_t run_id = support::AllocateTraceRunId();
  support::TraceContextScope run_scope(
      support::TraceContext{run_id, support::CurrentTraceContext().span_id});
  support::TraceSpan span("agent.run", "agent");
  span.AddArg("task", task.id);
  span.AddArg("mode", InterfaceModeName(config.mode));
  span.AddArg("seed", static_cast<int64_t>(seed));
  const int64_t run_start_us = support::TraceNowUs();
  RunResult result = RunOnceInternal(task, config, seed, run_id);
  result.run_id = run_id;
  span.AddArg("success", result.success ? int64_t{1} : int64_t{0});
  // The counters are straight sums over runs, so suite totals equal the
  // SuiteResult aggregates regardless of worker count or interleaving.
  support::CountMetric("agent.runs");
  support::CountMetric(result.success ? "agent.successes" : "agent.failures");
  support::CountMetric("agent.llm_calls", static_cast<uint64_t>(result.llm_calls));
  support::CountMetric("agent.core_calls", static_cast<uint64_t>(result.core_calls));
  support::CountMetric("agent.prompt_tokens", result.prompt_tokens);
  support::CountMetric("agent.output_tokens", result.output_tokens);
  support::CountMetric("agent.ui_actions", result.ui_actions);
  if (!result.success) {
    support::CountMetric(FailureMetricName(result.cause));
  }
  // Labeled series ride alongside the unlabeled totals above (the
  // total + per-label pattern), slicing the fleet by app kind, policy
  // preset, and failure class.
  {
    support::MetricLabels labels{{"app", workload::AppKindName(task.app)}};
    if (!config.policy_label.empty()) {
      labels.emplace_back("policy", config.policy_label);
    }
    support::CountMetric("agent.runs", labels);
    support::CountMetric(result.success ? "agent.successes" : "agent.failures", labels);
    support::CountMetric("agent.llm_calls", labels, static_cast<uint64_t>(result.llm_calls));
    support::CountMetric("agent.prompt_tokens", labels, result.prompt_tokens);
    if (!result.success) {
      labels.emplace_back("class", FailureSlug(result.cause));
      support::CountMetric("agent.failure", std::move(labels));
    }
  }
  support::ObserveMetric("agent.run_ms",
                         static_cast<double>(support::TraceNowUs() - run_start_us) / 1000.0);
  return result;
}

RunResult TaskRunner::RunOnceInternal(const workload::Task& task, const RunConfig& config,
                                      uint64_t seed, uint64_t run_id) {
  // Shared-ownership copy: if a RefreshModel publishes a new model for this
  // kind mid-run, this run keeps the build it started on (zero-downtime
  // swap, DESIGN.md §15).
  const std::shared_ptr<const dmi::CompiledModel> model = ModelFor(task.app);
  // The injector is declared before the lease on purpose: the lease destructor
  // factory-resets the pooled app, which detaches the injector pointer, and
  // only afterwards does the injector itself go out of scope.
  gsim::InstabilityInjector injector(config.instability, seed ^ 0x5eedf00dULL);
  SimLlm llm(config.profile, seed);
  // The run's flight recorder (DESIGN.md §13): LLM calls and batch
  // memberships stream in via the SimLlm hook, executed commands via the
  // session's visit executor. Shared so the RunResult can carry it out.
  auto flight = std::make_shared<support::FlightRecorder>(run_id, kFlightRecorderEvents);
  llm.AttachFlightRecorder(flight.get());
  workload::AppPool::Lease lease = app_pool_.Acquire(task, config.pool_apps);
  gsim::Application& app = *lease;
  app.SetInstability(&injector);
  if (config.batch.enabled) {
    // Fleet accounting: DMI calls batch under the shared model's prefix key,
    // GUI-mode calls batch prefix-less. Observational only — the sink draws
    // no RNG and never feeds back into the run.
    const dmi::CompiledModel* prefix =
        config.mode == InterfaceMode::kGuiPlusDmi ? model.get() : nullptr;
    llm.AttachBatchSink(&batch_scheduler_, prefix,
                        prefix != nullptr ? prefix->static_prompt_tokens() : 0,
                        workload::AppKindName(task.app));
  }

  RunResult result;
  if (config.mode == InterfaceMode::kGuiPlusDmi) {
    dmi::SessionOptions session_options;
    session_options.visit = config.visit;
    session_options.interaction = model->options().interaction;
    session_options.interaction.retry = config.interaction_retry;
    dmi::DmiSession session(app, model, session_options);
    // Backoff jitter is seeded per trial: deterministic for a given seed,
    // decorrelated across trials.
    session.SeedRetryRng(seed);
    if (config.run_deadline_ticks > 0) {
      session.SetRunDeadline(
          support::Deadline::AtTicks(app.current_tick(), config.run_deadline_ticks));
    }
    session.SetFlightRecorder(flight.get());
    DmiAgentConfig agent_config;
    agent_config.step_cap = config.step_cap;
    agent_config.capture_report_json = config.capture_report_json;
    DmiAgent agent(agent_config);
    result = agent.Run(task, session, llm);
  } else {
    BaselineConfig agent_config;
    agent_config.step_cap = config.step_cap;
    agent_config.forest_knowledge = config.mode == InterfaceMode::kGuiOnlyForest;
    agent_config.forest_knowledge_tokens = model->stats().core_tokens;
    BaselineGuiAgent agent(agent_config);
    result = agent.Run(task, app, llm, &injector);
  }
  if (!result.success) {
    flight->RecordNote("run failed: " + std::string(FailureCauseName(result.cause)));
  }
  result.flight = std::move(flight);
  return result;
}

SuiteResult TaskRunner::RunSuite(const std::vector<workload::Task>& tasks,
                                 const RunConfig& config) {
  support::TraceSpan span("agent.suite", "agent");
  span.AddArg("tasks", static_cast<int64_t>(tasks.size()));
  span.AddArg("repeats", static_cast<int64_t>(config.repeats));
  span.AddArg("mode", InterfaceModeName(config.mode));
  // Trial seeds depend only on (suite seed, task id, trial index), never on
  // execution order, so serial and parallel suites produce identical records.
  auto trial_seed = [&config](const workload::Task& task, int trial) {
    return config.seed * 1000003ULL + std::hash<std::string>{}(task.id) * 31ULL +
           static_cast<uint64_t>(trial) * 7919ULL;
  };

  SuiteResult result;
  result.records.resize(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    result.records[i].task_id = tasks[i].id;
    result.records[i].runs.resize(static_cast<size_t>(config.repeats));
  }

  if (config.batch.enabled) {
    batch_scheduler_.Configure(config.batch);
  }

  const int workers =
      config.workers == 0 ? static_cast<int>(support::ThreadPool::DefaultThreads())
                          : config.workers;
  if (workers <= 1) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      for (int trial = 0; trial < config.repeats; ++trial) {
        result.records[i].runs[static_cast<size_t>(trial)] =
            RunOnce(tasks[i], config, trial_seed(tasks[i], trial));
      }
    }
    if (config.batch.enabled) {
      batch_scheduler_.FlushAll();
    }
    return result;
  }

  // Parallel fan-out over (task, trial) cells into preallocated slots. Models
  // are built up front so workers only ever read them; every run owns a fresh
  // app instance confined to its worker. Fleet mode additionally prewarms the
  // app pool so concurrent leases start from reset instances instead of
  // racing through first-touch construction.
  for (const workload::Task& task : tasks) {
    ModelFor(task.app);
  }
  if (config.batch.enabled && config.pool_apps) {
    std::set<workload::AppKind> kinds;
    for (const workload::Task& task : tasks) {
      if (kinds.insert(task.app).second) {
        app_pool_.Prewarm(task, static_cast<size_t>(workers));
      }
    }
  }
  support::ThreadPool pool(static_cast<size_t>(workers));
  std::vector<std::future<void>> pending;
  pending.reserve(tasks.size() * static_cast<size_t>(config.repeats));
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (int trial = 0; trial < config.repeats; ++trial) {
      RunResult* slot = &result.records[i].runs[static_cast<size_t>(trial)];
      const workload::Task* task = &tasks[i];
      const uint64_t seed = trial_seed(*task, trial);
      pending.push_back(pool.Submit(
          [this, slot, task, &config, seed] { *slot = RunOnce(*task, config, seed); }));
    }
  }
  for (std::future<void>& f : pending) {
    f.get();
  }
  if (config.batch.enabled) {
    batch_scheduler_.FlushAll();
  }
  return result;
}

// ----- SuiteResult aggregates -----------------------------------------------------

int SuiteResult::TotalRuns() const {
  int n = 0;
  for (const TaskRecord& r : records) {
    n += static_cast<int>(r.runs.size());
  }
  return n;
}

int SuiteResult::FailedRuns() const {
  int n = 0;
  for (const TaskRecord& r : records) {
    for (const RunResult& run : r.runs) {
      n += run.success ? 0 : 1;
    }
  }
  return n;
}

double SuiteResult::SuccessRate() const {
  const int total = TotalRuns();
  if (total == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(FailedRuns()) / total;
}

namespace {

// Mean of `value` over the suite's successful runs (of the tasks in `only`,
// when given); 0 when there are none.
template <typename Value>
double MeanOverSuccesses(const SuiteResult& suite, Value value,
                         const std::set<std::string>* only = nullptr) {
  double sum = 0;
  int n = 0;
  for (const TaskRecord& r : suite.records) {
    if (only != nullptr && only->count(r.task_id) == 0) {
      continue;
    }
    for (const RunResult& run : r.runs) {
      if (run.success) {
        sum += value(run);
        ++n;
      }
    }
  }
  return n == 0 ? 0.0 : sum / n;
}

// Ids of the tasks whose count of successful runs passes `solved(wins, runs)`.
template <typename Solved>
std::set<std::string> TasksWhere(const SuiteResult& suite, Solved solved) {
  std::set<std::string> ids;
  for (const TaskRecord& r : suite.records) {
    int wins = 0;
    for (const RunResult& run : r.runs) {
      wins += run.success ? 1 : 0;
    }
    if (solved(wins, static_cast<int>(r.runs.size()))) {
      ids.insert(r.task_id);
    }
  }
  return ids;
}

}  // namespace

double SuiteResult::AvgStepsSuccessful() const {
  return MeanOverSuccesses(*this, [](const RunResult& run) { return run.llm_calls; });
}

double SuiteResult::AvgTimeSuccessful() const {
  return MeanOverSuccesses(*this, [](const RunResult& run) { return run.sim_time_s; });
}

double SuiteResult::AvgPromptTokensSuccessful() const {
  return MeanOverSuccesses(
      *this, [](const RunResult& run) { return static_cast<double>(run.prompt_tokens); });
}

double SuiteResult::AvgTotalTokensSuccessful() const {
  return MeanOverSuccesses(*this, [](const RunResult& run) {
    return static_cast<double>(run.prompt_tokens + run.output_tokens);
  });
}

double SuiteResult::AvgUiActionsSuccessful() const {
  return MeanOverSuccesses(
      *this, [](const RunResult& run) { return static_cast<double>(run.ui_actions); });
}

double SuiteResult::OneShotShare(int core_calls) const {
  return MeanOverSuccesses(*this, [core_calls](const RunResult& run) {
    return run.core_calls <= core_calls ? 1.0 : 0.0;
  });
}

std::set<std::string> SuiteResult::SolvedTasks() const {
  return TasksWhere(*this, [](int wins, int runs) { return wins * 2 > runs; });
}

std::set<std::string> SuiteResult::SolvableTasks() const {
  return TasksWhere(*this, [](int wins, int) { return wins > 0; });
}

double SuiteResult::AvgStepsOnTasks(const std::set<std::string>& ids) const {
  return MeanOverSuccesses(*this, [](const RunResult& run) { return run.llm_calls; }, &ids);
}

std::map<FailureCause, int> SuiteResult::FailureDistribution() const {
  std::map<FailureCause, int> dist;
  for (const TaskRecord& r : records) {
    for (const RunResult& run : r.runs) {
      if (!run.success) {
        ++dist[run.cause];
      }
    }
  }
  return dist;
}

}  // namespace agentsim
