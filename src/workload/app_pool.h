// AppPool: a reset-based application pool for the suite harness (DESIGN.md
// §10).
//
// Constructing a synthetic Office-scale app allocates a >4,000-control tree;
// the paper's evaluation tears one down and rebuilds one for every RunOnce.
// The pool amortizes that: workers lease an instance per AppKind and, on
// return, the instance is factory-reset (Application::ResetToFreshState) —
// injector detached, document model reseeded, and every control the run
// changed restored to its snapshot — instead of destroyed.
//
// Reset-equivalence contract: a pooled-and-reset instance must be
// behaviorally indistinguishable from a freshly constructed one. With
// `verify_reset` on (default in debug builds), every return recomputes the
// UIA-tree checksum and compares it against the instance's own
// fresh-at-construction checksum; a mismatch counts `app_pool.reset_mismatches`
// and the instance is discarded, never reused — pooling can fail slow, but it
// can never silently change semantics.
#ifndef SRC_WORKLOAD_APP_POOL_H_
#define SRC_WORKLOAD_APP_POOL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/gui/application.h"
#include "src/support/retry.h"
#include "src/workload/tasks.h"

namespace workload {

class AppPool {
 public:
  struct Options {
    // Verify after every reset that the recycled instance checksums equal to
    // its freshly constructed self. Debug builds default on; release builds
    // default off (the checksum walks the full tree).
#ifndef NDEBUG
    bool verify_reset = true;
#else
    bool verify_reset = false;
#endif
    size_t max_idle_per_kind = 64;
    // Re-verify an idle instance's checksum at lease time (defense against
    // state mutated while shelved). On mismatch the instance is discarded and
    // acquisition retries the next idle one under `acquire_retry`; when the
    // attempt budget (or the shelf) runs out, a fresh instance is
    // constructed — acquisition degrades gracefully, it never fails.
    bool verify_acquire = false;
    support::RetryPolicy acquire_retry = support::RetryPolicy::FixedTicks(2);
  };

  // RAII lease: hands out a ready-to-use Application and returns it to the
  // pool (factory-reset) on destruction. An unpooled lease owns a throwaway
  // instance destroyed on release, so both paths share one interface.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        pool_ = other.pool_;
        kind_ = other.kind_;
        fresh_checksum_ = other.fresh_checksum_;
        generation_ = other.generation_;
        app_ = std::move(other.app_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    gsim::Application* get() const { return app_.get(); }
    gsim::Application& operator*() const { return *app_; }
    gsim::Application* operator->() const { return app_.get(); }
    explicit operator bool() const { return app_ != nullptr; }

    // Resets and returns the instance now (idempotent).
    void Release();

   private:
    friend class AppPool;
    Lease(AppPool* pool, AppKind kind, std::unique_ptr<gsim::Application> app,
          uint64_t fresh_checksum, uint64_t generation)
        : pool_(pool),
          kind_(kind),
          fresh_checksum_(fresh_checksum),
          generation_(generation),
          app_(std::move(app)) {}

    AppPool* pool_ = nullptr;  // null for unpooled leases
    AppKind kind_ = AppKind::kWord;
    uint64_t fresh_checksum_ = 0;
    uint64_t generation_ = 0;  // pool generation the instance was built under
    std::unique_ptr<gsim::Application> app_;
  };

  AppPool() = default;
  explicit AppPool(Options options) : options_(options) {}

  // Leases an instance for `task`: reuses an idle pooled instance of the
  // task's AppKind, else constructs one via task.make_app(). `pooled = false`
  // constructs a throwaway instance (the unpooled baseline path).
  // Thread-safe; the expensive work (construction, reset, checksum) runs
  // outside the pool lock on the exclusively-owned instance.
  Lease Acquire(const Task& task, bool pooled = true);

  // Fills the task's shelf up to `count` idle instances (bounded by
  // max_idle_per_kind), so a fleet of concurrent workers starts from warm
  // reset-verified instances instead of racing through first-touch
  // construction. Construction runs outside the pool lock; thread-safe.
  void Prewarm(const Task& task, size_t count);

  size_t IdleCount(AppKind kind);

  using Factory = std::function<std::unique_ptr<gsim::Application>()>;

  // Live version swap support (DESIGN.md §15): makes every *future* lease of
  // `kind` construct through `factory` instead of Task::make_app, drops the
  // idle shelf (those instances are the old build), and bumps the kind's
  // generation so in-flight leases of the old build are destroyed on return
  // instead of re-shelved. Thread-safe; null restores Task::make_app (still
  // bumping the generation).
  void SetFactory(AppKind kind, Factory factory);

 private:
  struct Idle {
    std::unique_ptr<gsim::Application> app;
    uint64_t fresh_checksum = 0;
  };

  // Called by Lease::Release: factory-reset, verify, and re-shelve (or
  // discard on mismatch / overflow / stale generation).
  void Return(AppKind kind, std::unique_ptr<gsim::Application> app, uint64_t fresh_checksum,
              uint64_t generation);

  // Constructs one instance of `kind` under the current factory override (or
  // `task.make_app()`), returning it with the generation it was built under.
  std::pair<std::unique_ptr<gsim::Application>, uint64_t> Construct(const Task& task);

  Options options_;
  std::mutex mu_;
  std::map<AppKind, std::vector<Idle>> idle_;
  std::map<AppKind, Factory> factory_;      // per-kind override; absent = make_app
  std::map<AppKind, uint64_t> generation_;  // bumped by every SetFactory
};

}  // namespace workload

#endif  // SRC_WORKLOAD_APP_POOL_H_
