#include "src/dmi/model_registry.h"

#include "src/dmi/model_artifact.h"
#include "src/support/logging.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace dmi {

std::string ModelRegistry::ArtifactPath(const std::string& app_kind,
                                        const std::string& app_version) const {
  if (model_dir_.empty()) {
    return "";
  }
  return model_dir_ + "/" + app_kind + "-" + app_version + kArtifactExtension;
}

support::Result<std::shared_ptr<const CompiledModel>> ModelRegistry::Acquire(
    const std::string& app_kind, const std::string& app_version,
    const ModelingOptions& runtime_options, const CompileFn& compile) {
  support::TraceSpan span("registry.acquire", "model");
  span.AddArg("app", app_kind + "-" + app_version);
  std::unique_lock<std::mutex> lock(mu_);
  return Resolve(lock, Key(app_kind, app_version), runtime_options, &compile);
}

support::Result<std::shared_ptr<const CompiledModel>> ModelRegistry::Current(
    const std::string& app_kind, const ModelingOptions& runtime_options,
    const CompileFn& compile) {
  std::unique_lock<std::mutex> lock(mu_);
  return Resolve(lock, Key(app_kind, CurrentVersionLocked(app_kind)), runtime_options,
                 &compile);
}

const std::string& ModelRegistry::CurrentVersionLocked(const std::string& app_kind) const {
  const auto latest = latest_.find(app_kind);
  return latest != latest_.end() ? latest->second : default_version_;
}

std::shared_ptr<const CompiledModel> ModelRegistry::MemoHitLocked(const Key& key) {
  const auto it = memo_.find(key);
  if (it == memo_.end()) {
    return nullptr;
  }
  ++stats_.memo_hits;
  support::CountMetric("registry.memo_hits");
  return it->second;
}

support::Result<std::shared_ptr<const CompiledModel>> ModelRegistry::Resolve(
    std::unique_lock<std::mutex>& lock, const Key& key, const ModelingOptions& runtime_options,
    const CompileFn* compile) {
  // Another resolver of this key publishes it (or fails) before we look.
  resolved_.wait(lock, [&] { return !in_flight_.contains(key); });
  if (std::shared_ptr<const CompiledModel> memoized = MemoHitLocked(key)) {
    return memoized;
  }

  // Load, else compile and save through, with the lock released: the other
  // keys resolve meanwhile, and this key's other resolvers wait above.
  in_flight_.insert(key);
  lock.unlock();
  const std::string path = ArtifactPath(key.first, key.second);
  support::Result<LoadedModelArtifact> loaded = support::NotFoundError("no artifact store");
  if (!path.empty()) {
    ArtifactMeta expect{key.first, key.second};
    loaded = LoadModelArtifact(path, runtime_options, &expect);
  }
  support::Result<std::shared_ptr<const CompiledModel>> model =
      loaded.ok() ? support::Result<std::shared_ptr<const CompiledModel>>(loaded->model)
                  : support::NotFoundError("registry: no " + key.first + " model at version " +
                                           key.second);
  bool saved = false;
  if (!loaded.ok() && compile != nullptr) {
    model = (*compile)();
    saved = model.ok() && SaveThrough(key, **model);
  }
  lock.lock();
  in_flight_.erase(key);
  resolved_.notify_all();

  // Publish.
  if (loaded.ok()) {
    ++stats_.artifact_loads;
    support::CountMetric("registry.artifact_loads");
  } else {
    CountLoadErrorLocked(key, loaded.status());
    if (!model.ok()) {
      return model.status();
    }
    ++stats_.compiles;
    support::CountMetric("registry.compiles");
    if (saved) {
      CountSaveThroughLocked();
    }
  }
  memo_.emplace(key, *model);
  latest_.emplace(key.first, key.second);  // a kind's first version is its latest
  return *model;
}

bool ModelRegistry::SaveThrough(const Key& key, const CompiledModel& model) const {
  const std::string path = ArtifactPath(key.first, key.second);
  if (path.empty()) {
    return false;
  }
  support::Status saved = SaveModelArtifact(model, ArtifactMeta{key.first, key.second}, path);
  if (!saved.ok()) {
    support::LogMessage(support::LogLevel::kWarning,
                        "registry: artifact save-through failed: " + saved.ToString());
  }
  return saved.ok();
}

void ModelRegistry::CountSaveThroughLocked() {
  ++stats_.save_throughs;
  support::CountMetric("registry.save_throughs");
}

void ModelRegistry::CountLoadErrorLocked(const Key& key, const support::Status& status) {
  if (status.code() == support::StatusCode::kNotFound) {
    return;
  }
  // A present-but-unusable artifact is worth a log line — it means a stale
  // or corrupt store — but never blocks the run: the compile fallback
  // rebuilds and the save-through replaces it. The line is emitted once per
  // (kind, version): when the compile fallback also fails (read-only store,
  // broken pipeline), every session re-enters this path, and a serving
  // daemon would otherwise spam one warning per admitted session for the
  // same broken artifact.
  ++stats_.load_errors;
  support::CountMetric("registry.load_errors");
  if (load_error_logged_.insert(key).second) {
    ++stats_.load_errors_logged;
    support::LogMessage(support::LogLevel::kWarning,
                        "registry: artifact rejected, recompiling: " + status.ToString());
  }
}

support::Result<std::shared_ptr<const CompiledModel>> ModelRegistry::Refresh(
    const std::string& app_kind, const std::string& new_version,
    const ModelingOptions& runtime_options, const RemodelFn& remodel) {
  support::TraceSpan span("registry.refresh", "model");
  const Key new_key(app_kind, new_version);
  std::string old_version;
  support::Result<std::shared_ptr<const CompiledModel>> baseline =
      support::InternalError("registry: baseline not resolved");
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (std::shared_ptr<const CompiledModel> published = MemoHitLocked(new_key)) {
      latest_[app_kind] = new_version;
      return published;
    }
    // The baseline is the kind's current model: memo first, then a cold
    // artifact load, which is counted and memoized like Acquire's.
    old_version = CurrentVersionLocked(app_kind);
    baseline = Resolve(lock, Key(app_kind, old_version), runtime_options, nullptr);
  }
  span.AddArg("app", app_kind + ": " + old_version + " -> " + new_version);
  if (!baseline.ok()) {
    return support::FailedPreconditionError("registry: no " + app_kind + " model at version " +
                                            old_version + " to refresh from");
  }

  // The remodel (a delta rip and a compile) runs unlocked: every other key,
  // and this kind's current model, resolves meanwhile.
  support::Result<Remodeled> remodeled = remodel(*baseline);
  if (!remodeled.ok()) {
    return remodeled.status();
  }

  // Publish: after this insert, Current() and Acquire(new_version) memo-hit.
  // The old version's entry stays (sessions may still Acquire it mid-suite)
  // until Prune decides nothing holds it.
  std::lock_guard<std::mutex> lock(mu_);
  latest_[app_kind] = new_version;
  if (std::shared_ptr<const CompiledModel> published = MemoHitLocked(new_key)) {
    return published;  // a concurrent Refresh published this version first
  }
  ++stats_.delta_rips;
  stats_.delta_nodes_reused += remodeled->nodes_reused;
  support::CountMetric("registry.delta_rips");
  support::CountMetric("registry.delta_nodes_reused", remodeled->nodes_reused);
  if (SaveThrough(new_key, *remodeled->model)) {
    CountSaveThroughLocked();
  }
  memo_.emplace(new_key, remodeled->model);
  if (flight_ != nullptr) {
    flight_->RecordNote("registry: " + app_kind + " model swapped " + old_version + " -> " +
                        new_version + " (reused " +
                        std::to_string(remodeled->nodes_reused) + " nodes)");
  }
  return remodeled->model;
}

size_t ModelRegistry::Prune(const std::string& app_kind) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto latest = latest_.find(app_kind);
  size_t dropped = 0;
  for (auto it = memo_.begin(); it != memo_.end();) {
    const bool same_kind = it->first.first == app_kind;
    const bool is_latest =
        latest != latest_.end() && it->first.second == latest->second;
    // use_count()==1 under the lock means the registry holds the only
    // reference: no session can race a copy out of a map it can't reach.
    if (same_kind && !is_latest && it->second.use_count() == 1) {
      it = memo_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.pruned += dropped;
  if (dropped > 0) {
    support::CountMetric("registry.pruned", dropped);
  }
  return dropped;
}

void ModelRegistry::SetFlightRecorder(support::FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mu_);
  flight_ = recorder;
}

}  // namespace dmi
