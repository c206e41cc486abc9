#!/usr/bin/env python3
"""Fails when a gated metric in BENCH_perf.json regresses >20% vs baseline.

The perf harness (bench_micro_capture, bench_micro_describe, bench_micro_batch,
bench_serve_load, ...) folds derived rates into BENCH_perf.json; that file is a
build artifact and never committed. The committed reference is
bench/BENCH_baseline.json: conservative values set with margin vs typical
measurements (wall-clock speedups are machine-dependent; the
batching/residency gates are deterministic) but far from the failure mode a
regression produces (a lost cache collapses a speedup to ~1x; batching
degenerating to serial collapses the amortized speedup to ~1x; a serialized
admission path multiplies serving tail latency).

Each gate has a direction. "floor" gates (the default — speedups, rates,
throughput) fail when the measured value drops below
baseline * (1 - tolerance). "ceiling" gates (latencies, e.g. the serve_load
p99) fail when the value rises above baseline * (1 + tolerance).

The observed-vs-bound table is printed on pass AND fail, so CI logs always
show how much headroom each gate has left.

Exit codes: 0 pass, 1 regression, 77 skip (inputs missing — e.g. the benches
were not run in this build). 77 matches the ctest SKIP_RETURN_CODE wiring.

Usage:
  tools/check_bench_regression.py [--perf build/BENCH_perf.json]
                                  [--baseline bench/BENCH_baseline.json]
                                  [--tolerance 0.20]
                                  [--update-floors] [--headroom 0.20]

--update-floors rewrites the baseline: every covered metric present in the
perf results is re-bounded at observed * (1 - headroom) (floors) or
observed * (1 + headroom) (ceilings), rounded to 3 significant digits.
Rows/metrics absent from the perf results are left untouched. Run the full
micro-bench harness first, eyeball the diff, and commit it deliberately — the
mode exists to make intentional re-floors easy, not automatic.
"""

import argparse
import json
import math
import os
import sys

SKIP = 77

# (section, rows key, row id key, metric[, direction]) tuples covered by the
# check. direction defaults to "floor" (higher is better); "ceiling" gates
# latency-style metrics where lower is better.
CHECKS = [
    ("micro_capture", "lookup", "app", "warm_find_speedup"),
    ("micro_describe", "describe", "app", "warm_full_speedup"),
    ("micro_describe", "describe", "app", "warm_prompt_speedup"),
    ("micro_session", "sessions", "app", "warm_session_speedup"),
    ("micro_session", "pool", "app", "pooled_setup_speedup"),
    ("micro_batch", "batching", "batch_size", "amortized_speedup"),
    ("micro_batch", "batching", "batch_size", "tokens_per_sec"),
    ("micro_batch", "residency", "app", "resident_reduction"),
    ("micro_artifact", "artifact", "app", "vs_recompile_speedup"),
    ("micro_delta", "delta", "mutations", "delta_speedup"),
    ("micro_telemetry", "tracing", "case", "disabled_span_mops"),
    ("micro_telemetry", "tracing", "case", "traced_speedup"),
    ("ablation_faults", "levels", "level", "success_rate"),
    ("serve_load", "load", "scenario", "throughput_sps"),
    ("serve_load", "load", "scenario", "p99_ms", "ceiling"),
]


def normalize_check(check):
    """Expands a CHECKS tuple to (section, rows_key, id_key, metric, direction)."""
    if len(check) == 5:
        return check
    section, rows_key, id_key, metric = check
    return section, rows_key, id_key, metric, "floor"


def load_json(path, label):
    if not os.path.exists(path):
        print(f"[skip] {label} not found: {path}")
        return None
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"[skip] cannot read {label} {path}: {err}")
        return None


def rows_by_id(doc, section, rows_key, id_key):
    sec = doc.get(section)
    if not isinstance(sec, dict):
        return None
    rows = sec.get(rows_key)
    if not isinstance(rows, list):
        return None
    return {r[id_key]: r for r in rows if isinstance(r, dict) and id_key in r}


def round_sig(value, digits=3):
    if value == 0:
        return 0.0
    scale = digits - 1 - math.floor(math.log10(abs(value)))
    return round(value, scale)


def update_floors(perf, baseline, baseline_path, headroom):
    """Re-bounds the baseline from observed values (floors down, ceilings up)."""
    updated = 0
    for check in CHECKS:
        section, rows_key, id_key, metric, direction = normalize_check(check)
        base_rows = rows_by_id(baseline, section, rows_key, id_key)
        cur_rows = rows_by_id(perf, section, rows_key, id_key)
        if base_rows is None or cur_rows is None:
            continue
        for row_id, base_row in base_rows.items():
            if metric not in base_row:
                continue
            cur_row = cur_rows.get(row_id)
            if cur_row is None or metric not in cur_row:
                continue
            margin = -headroom if direction == "floor" else headroom
            new_bound = round_sig(float(cur_row[metric]) * (1.0 + margin))
            if new_bound != base_row[metric]:
                print(f"  {section}/{row_id}/{metric}: "
                      f"{base_row[metric]} -> {new_bound} "
                      f"(observed {float(cur_row[metric]):.1f}, {direction})")
                base_row[metric] = new_bound
                updated += 1
    if updated == 0:
        print("no floors changed")
        return 0
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"\nupdated {updated} floor(s) in {baseline_path} "
          f"(observed * {1.0 - headroom:.2f}); review and commit the diff")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--perf", default="build/BENCH_perf.json")
    parser.add_argument("--baseline", default="bench/BENCH_baseline.json")
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--update-floors", action="store_true",
                        help="rewrite baseline floors from the current perf "
                             "results instead of checking")
    parser.add_argument("--headroom", type=float, default=0.20,
                        help="margin below observed values for --update-floors")
    args = parser.parse_args()

    perf = load_json(args.perf, "perf results")
    baseline = load_json(args.baseline, "baseline")
    if perf is None or baseline is None:
        return SKIP

    if args.update_floors:
        return update_floors(perf, baseline, args.baseline, args.headroom)

    header = f"  {'metric':<52} {'observed':>10} {'baseline':>10} {'bound':>10}  verdict"
    print(header)
    print("  " + "-" * (len(header) - 2))
    failures = []
    compared = 0
    skipped_sections = set()
    for check in CHECKS:
        section, rows_key, id_key, metric, direction = normalize_check(check)
        base_rows = rows_by_id(baseline, section, rows_key, id_key)
        cur_rows = rows_by_id(perf, section, rows_key, id_key)
        if base_rows is None:
            continue  # baseline does not cover this section
        if cur_rows is None:
            skipped_sections.add(section)  # bench not run in this build
            continue
        for row_id, base_row in sorted(base_rows.items(), key=lambda kv: str(kv[0])):
            if metric not in base_row:
                continue
            if direction == "floor":
                bound = float(base_row[metric]) * (1.0 - args.tolerance)
            else:
                bound = float(base_row[metric]) * (1.0 + args.tolerance)
            cur_row = cur_rows.get(row_id)
            name = f"{section}/{row_id}/{metric}"
            if cur_row is None or metric not in cur_row:
                failures.append(f"{name}: missing from perf results")
                print(f"  {name:<52} {'--':>10} {float(base_row[metric]):>10.1f} "
                      f"{bound:>10.1f}  MISSING")
                continue
            value = float(cur_row[metric])
            compared += 1
            ok = value >= bound if direction == "floor" else value <= bound
            verdict = "ok" if ok else "REGRESSION"
            print(f"  {name:<52} {value:>10.1f} {float(base_row[metric]):>10.1f} "
                  f"{bound:>10.1f}  {verdict}")
            if not ok:
                op = "<" if direction == "floor" else ">"
                failures.append(f"{name}: {value:.1f} {op} {direction} {bound:.1f}")

    for section in sorted(skipped_sections):
        print(f"[note] section '{section}' absent from {args.perf} (bench not run)")

    if compared == 0:
        print("[skip] no comparable metrics (run the micro benches first)")
        return SKIP
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nPASS: {compared} gated metrics within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
