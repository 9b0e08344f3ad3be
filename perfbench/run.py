#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload mem_topk --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the dtrace library and the perfbench
binary (Release) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, and passes the binary's output
through: its last stdout line is the JSON result. With --trace 1 the spans
are written to <build dir>/spans/<workload>-seed<seed>.json. --all prints the
end-to-end and the per-layer metrics together (used by steady.py).

Exit status: 0 on success, 1 on a wrong answer or a failed run, 2 when the
sources are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mem_topk", "paged_routed", "mixed_stream")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--all", action="store_true")
    args = p.parse_args()

    out = build_dir()
    try:
        if not build(out):
            return 2
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.all:
        cmd.append("--all")
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return 0 if r.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
