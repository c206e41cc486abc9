#!/usr/bin/env python3
"""Builds the repository benchmark and runs one of its workloads.

    python3 perfbench/run.py --workload dmi_suite --seed 1 --seconds 30 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/ (the repository's src/ libraries plus the dmi_perfbench binary) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs only check the build. dmi_perfbench's report lines come first;
the last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"} holding the end-to-end metrics BENCHMARK.json names (--trace 0) or
its per-layer metrics (--trace 1). End-to-end timings are in reference time:
wall time scaled by a fixed host probe timed beside the work (bench.h), so a
shared host's slow phases do not read as regressions; the unscaled figures are
printed above the result line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 1

DMI, GUI = "dmi_suite", "gui_baseline"
ALL = (DMI, GUI)

# The workloads each end-to-end metric is defined on. Every workload prints
# every metric; elsewhere the value is a stand-in, measured as defined.
END_TO_END_ON = {
    "setup_s": ALL,
    "sessions_per_s": ALL,
    "session_p50_ms": ALL,
    "session_p99_ms": ALL,
    "peak_rss_mb": ALL,
    "task_success_rate": ALL,
    "llm_calls_per_success": ALL,
    "prompt_tokens_per_success": ALL,
    "sim_time_per_success_s": ALL,
    "one_shot_share": (DMI,),
}

# Per-layer metric -> (the metrics it should move, the workloads whose layer
# it is). A layer a workload never enters reads 0 there. "serving replay"
# marks figures of the dmi_serve replay that dmi_suite's traced run ends with
# (perfbench/serving.cc).
LAYERS = {
    "agent.run_us": ("session_p50_ms, sessions_per_s", ALL),
    "agent.run_self_us": ("session_p50_ms", ALL),
    "agent.dmi_self_us": ("session_p50_ms", (DMI,)),
    "agent.baseline_us": ("session_p50_ms", (GUI,)),
    "agent.batch_flush_us": ("serving replay: serve.cpu_us_per_session", (DMI,)),
    "dmi.visit_execute_self_us": ("session_p50_ms", (DMI,)),
    "dmi.visit_navigate_us": ("session_p50_ms and session_p99_ms", (DMI,)),
    "dmi.navigate_us_per_command": ("session_p50_ms", (DMI,)),
    "dmi.locate_fast_path": ("session_p99_ms", (DMI,)),
    "dmi.locate_fallback_walks": ("session_p99_ms", (DMI,)),
    "dmi.locate_retries": ("serving replay: serve.service_p99_ms", (DMI,)),
    "dmi.click_retries": ("serving replay: serve.service_p99_ms", (DMI,)),
    "dmi.attach_us": ("session_p50_ms", (DMI,)),
    "dmi.prompt_us": ("session_p50_ms", (DMI,)),
    "dmi.model_build_ms": ("setup_s", ALL),
    "dmi.model_load_ms": ("serving replay: its set-up (SessionManager + PrewarmModels)", (DMI,)),
    "ripper.rip_ms": ("setup_s", ALL),
    "ripper.index_rebuilds": ("session_p50_ms", (DMI,)),
    "ripper.index_lookups": ("session_p50_ms", (DMI,)),
    "ripper.index_cold_walks": ("session_p50_ms", (DMI,)),
    "ripper.index_hit_rate": ("session_p50_ms", (DMI,)),
    "describe.resolve_calls": ("session_p50_ms", (DMI,)),
    "describe.prompt_cache_hit_rate": ("session_p50_ms", (DMI,)),
    "workload.lease_us": ("session_p50_ms", ALL),
    "workload.reset_us": ("session_p50_ms", ALL),
    "workload.verify_us": ("session_p50_ms", ALL),
    "workload.app_creates": ("session_p99_ms", ALL),
    "gui.listing_us": ("session_p50_ms", (GUI,)),
    "gui.ui_actions": ("session_p50_ms", ALL),
    "serve.latency_p50_ms": ("none; the serving replay's client-observed p50", (DMI,)),
    "serve.latency_p99_ms": ("none; the serving replay's client-observed p99", (DMI,)),
    "serve.queue_p50_ms": ("serve.latency_p99_ms", (DMI,)),
    "serve.queue_p99_ms": ("serve.latency_p99_ms", (DMI,)),
    "serve.service_p50_ms": ("serve.latency_p50_ms", (DMI,)),
    "serve.service_p99_ms": ("serve.latency_p99_ms", (DMI,)),
    "serve.cpu_us_per_session": ("serve.latency_p50_ms", (DMI,)),
    "serve.encode_us": ("serve.cpu_us_per_session", (DMI,)),
    "serve.parse_us": ("serve.cpu_us_per_session", (DMI,)),
    "serve.send_late_p99_ms": ("none; shows whether the open loop held", (DMI,)),
    "serve.peak_outstanding": ("serve.latency_p99_ms", (DMI,)),
    "trace.overhead_share": ("none", ALL),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    for key, table in (("end_to_end", END_TO_END_ON), ("per_layer", LAYERS)):
        names = {entry["name"] for entry in spec[key]}
        if names != set(table):
            fail(f"BENCHMARK.json {key} and run.py disagree on: "
                 f"{', '.join(sorted(names ^ set(table)))}")
    return spec


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources beside perfbench/ (src/CMakeLists.txt is missing)")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target", "dmi_perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "dmi_perfbench")


def run_bench(binary, args, work_dir):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("dmi_perfbench's last line is not a JSON result")


def print_table(metrics, workload, trace):
    print(f"{'metric':34} {'value':>14}  {'unit':12} {'should move / on' if trace else 'on'}")
    for name, metric in metrics.items():
        if trace:
            should_move, on = LAYERS[name]
            doc = f"{should_move} / {', '.join(on)}"
            mark = "" if workload in on else "  (not this workload's layer)"
        else:
            on = END_TO_END_ON[name]
            doc = ", ".join(on)
            mark = "" if workload in on else "  (stand-in: not defined on this workload)"
        print(f"{name:34} {metric['value']:14.4f}  {metric['unit']:12} {doc}{mark}")


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    binary = build(out_dir)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work_dir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        result = run_bench(binary, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    measured = result.get("metrics", {})
    metrics = {}
    for entry in wanted:
        got = measured.get(entry["name"])
        if got is None:
            fail(f"{args.workload} did not report {entry['name']}")
        if got["unit"] != entry["unit"]:
            fail(f"{entry['name']} is reported in {got['unit']}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    print_table(metrics, args.workload, args.trace)
    for name, got in measured.items():
        if name not in metrics:
            print(f"also measured, not in this run's metrics: {name} = {got['value']:.6g} {got['unit']}")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
