// ModelRegistry: process-wide memo of compiled models keyed by
// (app kind, app version), backed by the binary artifact store
// (DESIGN.md §14).
//
// Acquire() resolves a key through three tiers, cheapest first:
//   1. memo hit   — the model is already in this process; shared_ptr copy.
//   2. cold load  — a checksum-verified artifact exists in the model
//                   directory; its stored rip is validated and compiled
//                   (CompiledModel::Compile), no rip runs.
//   3. compile    — the caller-supplied compile callback runs the full
//                   pipeline (rip + compile); the result is saved through
//                   to the store so every later process takes tier 2.
//
// Refresh() is the live-versioning half (DESIGN.md §15): it remodels an old
// version into a new one (delta rip against the old model's graph, then
// Compile) and publishes the result atomically — in-flight sessions keep
// their shared_ptr to the old build, new acquires see the new one, and
// Prune() reclaims superseded versions once nothing holds them.
//
// Keys are strings (not workload::AppKind) so dmi_core stays independent of
// the workload layer; callers pass AppKindName(kind).
#ifndef SRC_DMI_MODEL_REGISTRY_H_
#define SRC_DMI_MODEL_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "src/dmi/compiled_model.h"
#include "src/support/flight_recorder.h"
#include "src/support/status.h"

namespace dmi {

class ModelRegistry {
 public:
  // `model_dir` is the artifact store; empty disables tiers 2/3's disk side
  // (the registry degrades to a pure in-process memo).
  explicit ModelRegistry(std::string model_dir = "") : model_dir_(std::move(model_dir)) {}

  // Runs the full modeling pipeline for a key on a registry miss. Returns
  // the freshly compiled model (never null on Ok).
  using CompileFn =
      std::function<support::Result<std::shared_ptr<const CompiledModel>>()>;

  // Returns the model for (app_kind, app_version), loading or compiling as
  // needed. Thread-safe; concurrent Acquire calls for the same key resolve
  // to the same shared instance, and the loser of a race never compiles
  // twice (the whole resolution runs under the registry lock — coarse, but
  // Acquire is a per-run, not per-step, operation).
  support::Result<std::shared_ptr<const CompiledModel>> Acquire(
      const std::string& app_kind, const std::string& app_version,
      const ModelingOptions& runtime_options, const CompileFn& compile);

  // What a Refresh remodel callback produced: the new model plus the delta
  // ripper's reuse counter (ripper::DeltaRipResult::nodes_reused), folded
  // into stats().delta_nodes_reused.
  struct Remodeled {
    std::shared_ptr<const CompiledModel> model;
    size_t nodes_reused = 0;
  };

  // Remodels (app_kind, old_version) into new_version, typically by delta
  // ripping against the baseline model's graph and checksum table.
  // `baseline` is the memoized/loaded model for the old version, or null
  // when the registry has never seen it.
  using RemodelFn =
      std::function<support::Result<Remodeled>(const std::shared_ptr<const CompiledModel>& baseline)>;

  // Live version swap (DESIGN.md §15): runs `remodel` against the old
  // version's model and atomically publishes the result as
  // (app_kind, new_version) — after Refresh returns, Acquire of the new
  // version memo-hits the new model, while every shared_ptr handed out for
  // the old version stays valid until its last holder releases it
  // (zero-downtime: in-flight sessions finish on the build they started
  // on). The new model is saved through to the artifact store; the old
  // version's memo entry is kept until Prune(). Idempotent: if the new
  // version is already memoized, returns it without remodeling.
  support::Result<std::shared_ptr<const CompiledModel>> Refresh(
      const std::string& app_kind, const std::string& old_version,
      const std::string& new_version, const ModelingOptions& runtime_options,
      const RemodelFn& remodel);

  // Drops memoized models of `app_kind` that are not the latest published
  // version and have no holders outside the registry (use_count probe under
  // the registry lock — the registry holds the only other ref, so
  // use_count()==1 means no session can still be attached). Returns how many
  // entries were dropped; each also bumps stats().pruned and the
  // registry.pruned metric. Artifacts on disk are untouched.
  size_t Prune(const std::string& app_kind);

  // Borrowed recorder for swap breadcrumbs (Refresh notes the old→new
  // transition); null disables. The recorder must outlive the registry or
  // the next SetFlightRecorder call.
  void SetFlightRecorder(support::FlightRecorder* recorder);

  // "<model_dir>/<kind>-<version>.dmim"; empty when the registry has no
  // store.
  std::string ArtifactPath(const std::string& app_kind, const std::string& app_version) const;

  const std::string& model_dir() const { return model_dir_; }

  struct Stats {
    uint64_t memo_hits = 0;
    uint64_t artifact_loads = 0;
    uint64_t compiles = 0;
    uint64_t save_throughs = 0;
    // Artifacts present but rejected (corrupt, wrong identity, foreign
    // endianness, ...). Each falls back to a compile; the artifact is left
    // in place for inspection and overwritten by the save-through.
    uint64_t load_errors = 0;
    // Warning lines actually emitted for those rejections — at most one per
    // (kind, version), however many sessions re-trip the same broken
    // artifact (regression-tested in tests/artifact_test.cc).
    uint64_t load_errors_logged = 0;
    // Live version swaps (Refresh calls that ran the remodel callback).
    uint64_t delta_rips = 0;
    // Baseline nodes the delta ripper spliced unchanged across all swaps.
    uint64_t delta_nodes_reused = 0;
    // Old-version models dropped by Prune().
    uint64_t pruned = 0;
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  using Key = std::pair<std::string, std::string>;  // (app kind, app version)

  // The one artifact-load path, for Acquire and Refresh alike (mu_ held):
  // loads the key's artifact, counts artifact_loads or load_errors (warning
  // once per key), memoizes the model and makes it the kind's latest if the
  // kind has none. Null when there is no store, no file, or a rejected one.
  std::shared_ptr<const CompiledModel> LoadLocked(const Key& key,
                                                  const ModelingOptions& runtime_options);

  const std::string model_dir_;
  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const CompiledModel>> memo_;
  // Latest published version per kind: set by the first model a kind
  // resolves to (compiled or loaded) and advanced by every Refresh. Prune
  // keeps only this version.
  std::map<std::string, std::string> latest_;
  // Keys whose artifact-rejection warning has already been emitted.
  std::set<Key> load_error_logged_;
  support::FlightRecorder* flight_ = nullptr;  // borrowed; may be null
  Stats stats_;
};

}  // namespace dmi

#endif  // SRC_DMI_MODEL_REGISTRY_H_
