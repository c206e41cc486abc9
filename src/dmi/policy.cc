#include "src/dmi/policy.h"

namespace dmi {

Policy Policy::None() {
  Policy p;
  p.name = "none";
  p.instability = gsim::InstabilityConfig::None();
  return p;
}

Policy Policy::Typical() {
  Policy p;
  p.name = "typical";
  p.instability = gsim::InstabilityConfig::Typical();
  return p;
}

Policy Policy::Harsh() {
  Policy p;
  p.name = "harsh";
  p.instability = gsim::InstabilityConfig::Harsh();
  // Slow loads stretch to 4 ticks under Harsh; exponential backoff reaches
  // them in fewer attempts than the legacy 1-tick fixed loop.
  p.visit.retry = support::RetryPolicy::ExponentialJitter(
      /*max_attempts=*/4, /*initial_ticks=*/1, /*multiplier=*/2.0,
      /*max_ticks=*/8, /*jitter=*/0.0);
  p.interaction.retry = p.visit.retry;
  return p;
}

Policy Policy::Hostile() {
  Policy p;
  p.name = "hostile";
  p.instability = gsim::InstabilityConfig::Hostile();
  // Freeze windows last 5 ticks and pattern windows 3; the schedule must be
  // able to outwait one full window within its attempt budget. Jitter
  // decorrelates retries from the fault windows (drawn from the seeded run
  // RNG, so still deterministic per seed).
  p.visit.retry = support::RetryPolicy::ExponentialJitter(
      /*max_attempts=*/5, /*initial_ticks=*/1, /*multiplier=*/2.0,
      /*max_ticks=*/12, /*jitter=*/0.25);
  p.interaction.retry = p.visit.retry;
  // Bounded badness: a hostile run may never stall unboundedly.
  p.run_deadline_ticks = 600;
  return p;
}

}  // namespace dmi
