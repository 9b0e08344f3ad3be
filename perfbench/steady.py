#!/usr/bin/env python3
"""Steadiness tool for the repo benchmark: how much does each metric spread?

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 5 --workloads paged_routed
    python3 perfbench/steady.py --trace-check --first-seed 7

Run from the repository root. The default mode runs every workload --runs
times, one seed per round, rotating the workload order each round so no
workload always runs first, and prints for each end-to-end metric its median,
quartiles and quartile spread (Q3 - Q1) / median, beside the metric's bound
from BENCHMARK.json and a third of it. The bounds in BENCHMARK.json were set
from this output (README.md, "Steadiness and bounds").

--trace-check runs each read-only workload once untraced and once traced on
the same seed, checks that every count metric repeats exactly, and prints the
tracing overhead (traced vs untraced query p50) for every workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
READ_ONLY = ("mem_topk", "paged_routed")
# Per-layer metrics that are program counts: they must repeat exactly on
# the read-only workloads, traced or not.
COUNT_PREFIXES = ("core.query.", "core.sharded.", "storage.trace_pages.",
                  "storage.tree_pages.", "util.codec.")
COUNT_EXCLUDE = ("storage.trace_pages.build_ms",)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, all_metrics=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if all_metrics:
        cmd.append("--all")
    start = time.monotonic()
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - start
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, r.returncode))
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    bench = load_benchmark()
    want = set()
    if trace == 0 or all_metrics:
        want |= {m["name"] for m in bench["end_to_end"]}
    if trace == 1 or all_metrics:
        want |= {m["name"] for m in bench["per_layer"]}
    if set(metrics) != want or not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: bad result (metric names differ from "
                         "BENCHMARK.json: %s)" %
                         (workload, seed, sorted(set(metrics) ^ want)))
    return metrics, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(bench, workloads, runs, first_seed, seconds):
    names = [m["name"] for m in bench["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {n: [] for n in names} for w in workloads}
    walls = {w: [] for w in workloads}
    for r in range(runs):
        seed = first_seed + r
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            metrics, wall = run_once(w, seed, seconds, 0, all_metrics=True)
            walls[w].append(wall)
            for n in names:
                values[w][n].append(metrics[n])
            print("  %-13s seed %3d  %5.1fs  p50 %.2f ms  p95 %.2f ms  "
                  "setup %.4f s" %
                  (w, seed, wall, metrics["query_p50_ms"],
                   metrics["query_p95_ms"], metrics["setup_s"]),
                  flush=True)
    steady = True
    for w in workloads:
        print("\n%s (%d runs, mean wall %.1f s)" %
              (w, runs, statistics.mean(walls[w])))
        print("  %-14s %12s %12s %12s %8s %7s %7s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "bound/3"))
        for n in names:
            med, q1, q3, s = spread(values[w][n])
            flag = ""
            if s >= bounds[n] / 3:
                flag = "  WIDE"
                steady = False
            print("  %-14s %12.4f %12.4f %12.4f %8.4f %7.3f %7.3f%s" %
                  (n, med, q1, q3, s, bounds[n], bounds[n] / 3, flag))
    return steady


def trace_check(bench, workloads, seed, seconds):
    ok = True
    for w in workloads:
        plain, _ = run_once(w, seed, seconds, 0, all_metrics=True)
        traced, _ = run_once(w, seed, seconds, 1, all_metrics=True)
        overhead = traced["bench.query_p50_ms"] / plain["query_p50_ms"] - 1
        print("%-13s tracing overhead on query p50: %+.2f%%" %
              (w, 100 * overhead))
        if w not in READ_ONLY:
            continue
        same = True
        for name, v in sorted(plain.items()):
            if not name.startswith(COUNT_PREFIXES) or name in COUNT_EXCLUDE:
                continue
            if traced[name] != v:
                print("  MISMATCH %s: untraced %r, traced %r" %
                      (name, v, traced[name]))
                same = False
        print("  counts identical traced vs untraced: %s" %
              ("yes" if same else "NO"))
        ok = ok and same
    return ok


def main():
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace-check", action="store_true")
    args = p.parse_args()
    workloads = args.workloads.split(",")
    if args.trace_check:
        ok = trace_check(bench, workloads, args.first_seed, args.seconds)
    else:
        ok = steadiness(bench, workloads, args.runs, args.first_seed,
                        args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
