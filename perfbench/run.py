#!/usr/bin/env python3
"""The repository benchmark: builds scx_bench from source, runs one workload
in a single process, checks its outputs and prints its metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload paper_exec|large_script|batch_merged|all
                           --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
the traced run (see README.md). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only if every operation returned outputs equal to its reference.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RECORD_DIR = os.path.join(BUILD_ROOT, "records")
BINARY = os.path.join(BUILD_DIR, "scx_bench")
WORKLOADS = ("paper_exec", "large_script", "batch_merged")
REFUSED_ENV = ("SCX_NUM_THREADS", "SCX_BATCH_SIZE", "SCX_MORSEL_SIZE",
               "SCX_SPOOL_CACHE_BYTES")
# The percentile latency_tail_s reports per workload: the highest of p95,
# p90, p75 and p50 that has at least ten samples beyond it at the operation
# count each workload reaches in a 30 s run, with room for a slower run. It
# is fixed rather than taken from each run's count because runs consist of
# whole rounds over a fixed input mix, so a fixed percentile always lands on
# the same part of the mix; a count-dependent one would jump between inputs
# as the count changes. The output states how many samples lie beyond it.
TAIL_PERCENTILE = {"paper_exec": 90, "large_script": 50, "batch_merged": 90}
BINARY_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import trace_report  # noqa: E402


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds scx_bench; returns False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    with open(os.path.join(BUILD_ROOT, "build.log"), "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log(f"build failed: {' '.join(step)} "
                    f"(see {os.path.relpath(out.name, ROOT)})")
                return False
    return True


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def tail(workload, latencies):
    """(percentile, value, samples beyond it) for latency_tail_s."""
    q = TAIL_PERCENTILE[workload]
    if q == 50:
        return q, statistics.median(latencies), len(latencies) // 2
    ordered = sorted(latencies)
    rank = max(1, math.ceil(q / 100 * len(ordered)))  # nearest rank
    return q, ordered[rank - 1], len(ordered) - rank


def end_to_end_metrics(run):
    """Returns (metrics, extras) for one workload's record, each a list of
    (name, value, unit, note). Only `metrics` go into the JSON line."""
    ops = run["ops"]
    good = [o for o in ops if o["ok"]]
    latencies = [o["latency_s"] for o in ops]
    q, tail_value, beyond = tail(run["workload"], latencies)
    scripts = sum(o["scripts"] for o in good)
    moved = sum(o["counters"]["bytes_moved"] for o in good)
    budget_hits = sum(o["counters"].get("budget_exhausted", 0) for o in ops)
    metrics = [
        ("latency_p50_s", statistics.median(latencies), "s",
         f"of {len(latencies)} ops"),
        ("latency_tail_s", tail_value, "s",
         f"p{q} of {len(latencies)} ops, {beyond} beyond it" +
         ("" if beyond >= 10 else " (FEWER THAN 10)")),
        ("scripts_per_s", scripts / run["timed_s"], "1/s",
         f"{scripts} correct scripts in {run['timed_s']:.3f} s"),
        ("bytes_moved_per_script", moved / scripts if scripts else 0.0, "B",
         f"SPEED-DEPENDENT: {budget_hits:g} ops hit the optimizer budget"
         if budget_hits else ""),
        ("peak_rss_mb", run["setup_rss_kb"] / 1024.0, "MB",
         "peak resident set at the end of set-up"),
        ("setup_s", statistics.median(run["setup_s"]), "s",
         "median of " + ", ".join(f"{s:.4f}" for s in run["setup_s"])),
    ]
    extras = [
        ("failed_frac", (len(ops) - len(good)) / len(ops) if ops else 0.0,
         "ratio", f"{len(ops) - len(good)} of {len(ops)} ops"),
        ("core.budget_exhausted", budget_hits, "count", f"of {len(ops)} ops"),
        ("peak_rss_end_mb", run["peak_rss_kb"] / 1024.0, "MB",
         "peak resident set at the end of the run"),
        ("reference_s", run["reference_s"], "s",
         "computing reference outputs, not in setup_s"),
    ]
    return metrics, extras


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for var in REFUSED_ENV:
        if var in os.environ:
            log(f"refusing to run: {var} is set")
            return 2
    if not build():
        return 1

    os.makedirs(RECORD_DIR, exist_ok=True)
    record_path = os.path.join(
        RECORD_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", record_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"scx_bench did not finish within {BINARY_TIMEOUT_S} s")
        return 1
    if proc.returncode not in (0, 1) or not os.path.exists(record_path):
        log(f"scx_bench exited with code {proc.returncode}")
        return proc.returncode if proc.returncode > 0 else 1
    with open(record_path) as f:
        record = json.load(f)

    env = record["env"]
    print(f"scx benchmark  seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}  nproc={env['nproc']} "
          f"engine_threads={env['threads']} build={env['build_type']} "
          f"compiler=\"{env['compiler']}\" commit={git_commit()}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")

    all_metrics = {}
    attempted = failed = 0
    prefix_names = len(record["runs"]) > 1
    for run in record["runs"]:
        ops = run["ops"]
        attempted += len(ops)
        failed += sum(1 for o in ops if not o["ok"])
        print(f"== {run['workload']}: {len(ops)} ops in "
              f"{run['timed_s']:.3f} s (closed loop, 1 client)")
        if args.trace:
            metrics, extras = trace_report.per_layer_metrics(run), []
        else:
            metrics, extras = end_to_end_metrics(run)
        for name, value, unit, note in metrics + extras:
            print(f"  {name:<32} {value:>16.6g} {unit:<6} {note}")
        for name, value, unit, _ in metrics:
            key = f"{run['workload']}.{name}" if prefix_names else name
            all_metrics[key] = {"value": value, "unit": unit}

    correct = failed == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
