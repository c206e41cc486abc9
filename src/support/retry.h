// RetryPolicy / Deadline: the principled robustness budget primitives
// (DESIGN.md §11).
//
// Everything in the simulator runs on logical clocks (Application ticks), so
// both primitives are expressed in ticks, not wall time:
//   - RetryPolicy bounds *attempts* and spaces them with exponential backoff
//     (optionally jittered from the run's seeded RNG — deterministic per
//     seed, decorrelated across controls);
//   - Deadline bounds the *total* tick budget of a run; every retry loop
//     checks it so exhaustion surfaces as kDeadlineExceeded instead of an
//     unbounded stall under a frozen or hostile UI.
// Both are plain value types: cheap to copy, thread-safe to share.
#ifndef SRC_SUPPORT_RETRY_H_
#define SRC_SUPPORT_RETRY_H_

#include <cstdint>

#include "src/support/rng.h"

namespace support {

// Attempt budget + backoff schedule. `max_attempts` counts the first try:
// max_attempts == 1 means "no retries"; 0 is a sentinel for "unset" that
// callers resolve against their legacy knobs (see dmi::VisitConfig).
struct RetryPolicy {
  int max_attempts = 0;
  // Backoff before retry k (k = 1 is the first retry) is
  //   min(initial_backoff_ticks * multiplier^(k-1), max_backoff_ticks)
  // ticks, plus +/- jitter * backoff sampled uniformly from `rng`.
  uint64_t initial_backoff_ticks = 1;
  double backoff_multiplier = 1.0;
  uint64_t max_backoff_ticks = 16;
  double jitter = 0.0;  // fraction in [0,1]; 0 = fully deterministic schedule

  // No retries at all: fail on the first error.
  static RetryPolicy None();
  // The fixed loop: `retries` extra attempts, one tick between each (the
  // visit executor's default when VisitConfig::retry is unset).
  static RetryPolicy FixedTicks(int retries);
  // Exponential backoff with a jitter fraction (the harsh and hostile
  // --policy presets' schedules).
  static RetryPolicy ExponentialJitter(int max_attempts, uint64_t initial_ticks,
                                       double multiplier, uint64_t max_ticks,
                                       double jitter);

  bool unset() const { return max_attempts <= 0; }
  // True when a failed attempt `attempt` (1-based) leaves budget for another.
  bool ShouldRetry(int attempt) const { return attempt < max_attempts; }

  // Backoff ticks to wait before retry number `retry` (1-based). Draws from
  // `rng` only when jitter > 0, so the zero-jitter schedule consumes no
  // randomness (keeps legacy RNG streams byte-identical).
  uint64_t BackoffTicks(int retry, Rng& rng) const;
};

// A per-run monotonic-tick budget. Constructed from the clock's current value
// and a budget; callers pass the current tick to every query (the support
// layer stays independent of gsim::Application).
class Deadline {
 public:
  // Unlimited deadline: never expires.
  Deadline() = default;

  static Deadline Unlimited() { return Deadline(); }
  static Deadline AtTicks(uint64_t start_tick, uint64_t budget_ticks) {
    Deadline d;
    d.unlimited_ = false;
    d.start_ = start_tick;
    d.budget_ = budget_ticks;
    return d;
  }

  bool unlimited() const { return unlimited_; }
  uint64_t start_tick() const { return start_; }
  uint64_t budget_ticks() const { return budget_; }

  bool Expired(uint64_t now_tick) const {
    return !unlimited_ && now_tick >= start_ + budget_;
  }
  // Remaining budget (0 when expired; a large sentinel when unlimited).
  uint64_t RemainingTicks(uint64_t now_tick) const {
    if (unlimited_) {
      return UINT64_MAX;
    }
    const uint64_t end = start_ + budget_;
    return now_tick >= end ? 0 : end - now_tick;
  }

 private:
  bool unlimited_ = true;
  uint64_t start_ = 0;
  uint64_t budget_ = 0;
};

}  // namespace support

#endif  // SRC_SUPPORT_RETRY_H_
