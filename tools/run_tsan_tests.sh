#!/usr/bin/env bash
# Build and run the concurrency-sensitive tests under ThreadSanitizer.
#
# The tracing/metrics layer is lock-light by design (thread-local span
# buffers, relaxed atomics, destructor-flushed tallies), the describe layer's
# catalog is an immutable value read by every worker, and the run
# harness shares one CompiledModel per app plus a mutex-guarded application
# pool across suite workers; this job is the proof. The robustness layer
# (per-run retry RNGs, deadlines, robust.* counters) runs on every suite
# worker concurrently, so the parallel robustness/determinism tests ride
# along here too — as do the fleet-batching tests (batch_test): concurrent
# Submit into the BatchScheduler and the shared static-prompt segment read
# from every suite worker. The causal-telemetry tests (telemetry_test)
# hammer the new surfaces: cross-thread TraceContext hand-off, labeled
# counter registration from four suite workers, and concurrent flight
# recorder writes from the visit executor and the batch scheduler. The
# model-artifact tests (artifact_test) cover the registry: eight threads
# Acquire the same (kind, version) concurrently — exactly one cold load,
# everyone else memoized. The delta tests (delta_test) exercise the
# live-versioning path: a RefreshModel landing mid-suite while four workers
# resolve models, lease pooled apps across the generation bump, and read the
# old build's shared model; and a registry Refresh whose remodel waits on a
# latch while another key and the refreshing kind's current model resolve
# (the registry lock covers the baseline and the publish, not the remodel),
# and ModelRegistrySwap.ColdCompileDoesNotBlockOtherKeys: a cold compile held
# on a latch while a warm kind's Current, another key's Acquire and a second
# resolver of the compiling key run (the lock covers the memo and the
# publish, not the load or the compile).
# The serving tests (serve_test) put the whole stack behind
# the SessionManager: worker threads racing admission/quota accounting against
# Submit, a Shutdown draining the queue while a session is mid-run, and the
# ServeLoop's response writer fed from every worker at once.
# Usage: tools/run_tsan_tests.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" -DDMI_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" --target support_test agent_test integration_test \
    describe_test pool_test batch_test robustness_test telemetry_test artifact_test \
    delta_test serve_test
ctest --test-dir "$build_dir" --output-on-failure \
    -R 'Trace|Metrics|ThreadPool|Runner|Observability|Catalog|Serialize|Pool|CompiledModel|SuiteEquivalence|Robustness|Deadline|Retry|Hostile|Batch|SharedPrefix|Telemetry|Flight|Labeled|CausalSort|Artifact|Registry|Delta|ModelRegistrySwap|ConcurrentSwap|Admission|Drain|ServeEquivalence|ServeLoop'
