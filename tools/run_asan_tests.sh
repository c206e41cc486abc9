#!/usr/bin/env bash
# Build and run the test suite under AddressSanitizer + UndefinedBehavior-
# Sanitizer.
#
# The parsers of untrusted bytes — the `.dmim` model-artifact reader, the
# serving wire frames and src/json — must turn any input into a typed Status,
# never an out-of-bounds read or a signed overflow; this job is the proof for
# every input the tests feed them. Two ctest entries stay out:
# BenchRegressionCheck compares release-build timings, and ServeLoadSmoke is a
# timing-bound load run that sanitizer overhead only slows down.
# Usage: tools/run_asan_tests.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan}"

cmake -B "$build_dir" -S "$repo_root" -DDMI_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)"
ASAN_OPTIONS=detect_leaks=1:abort_on_error=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
    -E '^(BenchRegressionCheck|ServeLoadSmoke)$'
