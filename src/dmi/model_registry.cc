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
  const Key key(app_kind, app_version);
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = memo_.find(key); it != memo_.end()) {
    ++stats_.memo_hits;
    support::CountMetric("registry.memo_hits");
    return it->second;
  }

  if (std::shared_ptr<const CompiledModel> loaded = LoadLocked(key, runtime_options)) {
    return loaded;
  }

  support::Result<std::shared_ptr<const CompiledModel>> model = compile();
  if (!model.ok()) {
    return model.status();
  }
  ++stats_.compiles;
  support::CountMetric("registry.compiles");
  if (const std::string path = ArtifactPath(app_kind, app_version); !path.empty()) {
    ArtifactMeta meta{app_kind, app_version};
    support::Status saved = SaveModelArtifact(**model, meta, path);
    if (saved.ok()) {
      ++stats_.save_throughs;
      support::CountMetric("registry.save_throughs");
    } else {
      // Save-through is best-effort: a read-only store just means the next
      // process compiles again.
      support::LogMessage(support::LogLevel::kWarning,
                          "registry: artifact save-through failed: " + saved.ToString());
    }
  }
  memo_.emplace(key, *model);
  latest_.emplace(app_kind, app_version);  // a kind's first version is its latest
  return *model;
}

std::shared_ptr<const CompiledModel> ModelRegistry::LoadLocked(
    const Key& key, const ModelingOptions& runtime_options) {
  const std::string path = ArtifactPath(key.first, key.second);
  if (path.empty()) {
    return nullptr;
  }
  ArtifactMeta expect{key.first, key.second};
  support::Result<LoadedModelArtifact> loaded = LoadModelArtifact(path, runtime_options, &expect);
  if (loaded.ok()) {
    ++stats_.artifact_loads;
    support::CountMetric("registry.artifact_loads");
    memo_.emplace(key, loaded->model);
    latest_.emplace(key.first, key.second);
    return loaded->model;
  }
  if (loaded.status().code() != support::StatusCode::kNotFound) {
    // A present-but-unusable artifact is worth a log line — it means a
    // stale or corrupt store — but never blocks the run: the compile
    // fallback rebuilds and the save-through replaces it. The line is
    // emitted once per (kind, version): when the compile fallback also
    // fails (read-only store, broken pipeline), every session re-enters
    // this path, and a serving daemon would otherwise spam one warning per
    // admitted session for the same broken artifact.
    ++stats_.load_errors;
    support::CountMetric("registry.load_errors");
    if (load_error_logged_.insert(key).second) {
      ++stats_.load_errors_logged;
      support::LogMessage(support::LogLevel::kWarning,
                          "registry: artifact rejected, recompiling: " +
                              loaded.status().ToString());
    }
  }
  return nullptr;
}

support::Result<std::shared_ptr<const CompiledModel>> ModelRegistry::Refresh(
    const std::string& app_kind, const std::string& old_version,
    const std::string& new_version, const ModelingOptions& runtime_options,
    const RemodelFn& remodel) {
  support::TraceSpan span("registry.refresh", "model");
  span.AddArg("app", app_kind + ": " + old_version + " -> " + new_version);
  const Key new_key(app_kind, new_version);
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = memo_.find(new_key); it != memo_.end()) {
    ++stats_.memo_hits;
    support::CountMetric("registry.memo_hits");
    latest_[app_kind] = new_version;
    return it->second;
  }

  // Resolve the baseline: memo first, then a cold artifact load, which is
  // counted and memoized like Acquire's. A missing baseline is not an error;
  // the remodel callback decides what to rip against.
  const Key old_key(app_kind, old_version);
  std::shared_ptr<const CompiledModel> baseline;
  if (auto it = memo_.find(old_key); it != memo_.end()) {
    baseline = it->second;
  } else {
    baseline = LoadLocked(old_key, runtime_options);
  }

  support::Result<Remodeled> remodeled = remodel(baseline);
  if (!remodeled.ok()) {
    return remodeled.status();
  }
  ++stats_.delta_rips;
  stats_.delta_nodes_reused += remodeled->nodes_reused;
  support::CountMetric("registry.delta_rips");
  support::CountMetric("registry.delta_nodes_reused", remodeled->nodes_reused);

  if (const std::string path = ArtifactPath(app_kind, new_version); !path.empty()) {
    ArtifactMeta meta{app_kind, new_version};
    support::Status saved = SaveModelArtifact(*remodeled->model, meta, path);
    if (saved.ok()) {
      ++stats_.save_throughs;
      support::CountMetric("registry.save_throughs");
    } else {
      support::LogMessage(support::LogLevel::kWarning,
                          "registry: artifact save-through failed: " + saved.ToString());
    }
  }

  // Publish: after this insert, Acquire(new_version) memo-hits. The old
  // version's entry stays (sessions may still Acquire it mid-suite) until
  // Prune decides nothing holds it.
  memo_[new_key] = remodeled->model;
  latest_[app_kind] = new_version;
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
