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
// Current() is the tiers' entry point for a kind rather than a key: it
// resolves the kind's latest published version, else the registry's default
// version. A TaskRunner keeps its models only here and calls it once per run.
//
// Refresh() is the live-versioning half (DESIGN.md §15): it remodels the
// kind's current version into a new one (delta rip against the current
// model's graph, then Compile) without holding the registry lock, and
// publishes the result atomically — in-flight sessions keep their shared_ptr
// to the old build, new acquires see the new one, and Prune() reclaims
// superseded versions once nothing holds them.
//
// Keys are strings (not workload::AppKind) so dmi_core stays independent of
// the workload layer; callers pass AppKindName(kind).
#ifndef SRC_DMI_MODEL_REGISTRY_H_
#define SRC_DMI_MODEL_REGISTRY_H_

#include <condition_variable>
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
  // (the registry degrades to a pure in-process memo). `default_version` is
  // what Current() resolves for a kind that has no version yet.
  explicit ModelRegistry(std::string model_dir = "", std::string default_version = "1")
      : model_dir_(std::move(model_dir)), default_version_(std::move(default_version)) {}

  // Runs the full modeling pipeline for a key on a registry miss. Returns
  // the freshly compiled model (never null on Ok).
  using CompileFn =
      std::function<support::Result<std::shared_ptr<const CompiledModel>>()>;

  // Returns the model for (app_kind, app_version), loading or compiling as
  // needed. Thread-safe; concurrent Acquire calls for the same key resolve
  // to the same shared instance, and the loser of a race never compiles
  // twice: it waits for the winner's load or compile and then memo-hits. The
  // registry lock covers the memo lookup and the publish, not the load or
  // the compile, so other keys resolve meanwhile.
  support::Result<std::shared_ptr<const CompiledModel>> Acquire(
      const std::string& app_kind, const std::string& app_version,
      const ModelingOptions& runtime_options, const CompileFn& compile);

  // The kind's current model: Acquire of its latest published version, or of
  // the default version when it has none. A memo hit opens no span.
  support::Result<std::shared_ptr<const CompiledModel>> Current(
      const std::string& app_kind, const ModelingOptions& runtime_options,
      const CompileFn& compile);

  // What a Refresh remodel callback produced: the new model plus the delta
  // ripper's reuse counter (ripper::DeltaRipResult::nodes_reused), folded
  // into stats().delta_nodes_reused.
  struct Remodeled {
    std::shared_ptr<const CompiledModel> model;
    size_t nodes_reused = 0;
  };

  // Remodels the kind's current model into a new version, typically by delta
  // ripping against the baseline's graph and checksum table. `baseline` is
  // never null.
  using RemodelFn =
      std::function<support::Result<Remodeled>(const std::shared_ptr<const CompiledModel>& baseline)>;

  // Live version swap (DESIGN.md §15): runs `remodel` against the kind's
  // current model and atomically publishes the result as
  // (app_kind, new_version) — after Refresh returns, Current() and Acquire of
  // the new version memo-hit the new model, while every shared_ptr handed
  // out for the old version stays valid until its last holder releases it
  // (zero-downtime: in-flight sessions finish on the build they started
  // on). The baseline resolves like Acquire's key (memo, else a cold load
  // outside the lock), and the lock covers publishing, not the remodel, so
  // other keys and the kind's current model resolve meanwhile. The new model
  // is saved through to the artifact store; the old version's memo entry is
  // kept until Prune(). Idempotent: if the new version is already memoized,
  // before or after the remodel, returns the memoized model.
  // kFailedPrecondition when the kind's current version is neither memoized
  // nor in the store.
  support::Result<std::shared_ptr<const CompiledModel>> Refresh(
      const std::string& app_kind, const std::string& new_version,
      const ModelingOptions& runtime_options, const RemodelFn& remodel);

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
    // Live version swaps (remodels that Refresh published).
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

  // The memoized model for `key`, counted as a memo hit, or null (mu_ held).
  std::shared_ptr<const CompiledModel> MemoHitLocked(const Key& key);

  // The tiers for one key, for Acquire, Current and Refresh's baseline. The
  // memo is read under `lock` (holding mu_ on entry and on return). On a
  // miss the key is marked in flight and its artifact loaded — failing that,
  // when `compile` is set, compiled and saved through — with the lock
  // released; the result is published under it. A second resolver of an
  // in-flight key waits for it, so a key loads or compiles once. Without
  // `compile`, a key with no usable artifact is kNotFound.
  support::Result<std::shared_ptr<const CompiledModel>> Resolve(
      std::unique_lock<std::mutex>& lock, const Key& key,
      const ModelingOptions& runtime_options, const CompileFn* compile);

  // Counts a rejected artifact (load_errors) and warns once per key (mu_
  // held). A missing one is not an error.
  void CountLoadErrorLocked(const Key& key, const support::Status& status);

  // Best-effort save of a compiled or remodeled model to the store; true if
  // it was written. A read-only store just means the next process compiles
  // again.
  bool SaveThrough(const Key& key, const CompiledModel& model) const;
  // Counts a written save-through (mu_ held).
  void CountSaveThroughLocked();

  // The kind's latest published version, else default_version_ (mu_ held).
  const std::string& CurrentVersionLocked(const std::string& app_kind) const;

  const std::string model_dir_;
  const std::string default_version_;
  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const CompiledModel>> memo_;
  // Keys a resolver is loading or compiling with mu_ released; resolved_ is
  // notified as each one leaves.
  std::set<Key> in_flight_;
  std::condition_variable resolved_;
  // Latest published version per kind: set by the first model a kind
  // resolves to (compiled or loaded) and advanced by every Refresh. Current()
  // resolves it, and Prune keeps only this version.
  std::map<std::string, std::string> latest_;
  // Keys whose artifact-rejection warning has already been emitted.
  std::set<Key> load_error_logged_;
  support::FlightRecorder* flight_ = nullptr;  // borrowed; may be null
  Stats stats_;
};

}  // namespace dmi

#endif  // SRC_DMI_MODEL_REGISTRY_H_
