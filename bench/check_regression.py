#!/usr/bin/env python3
"""Fail when a bench's queries/sec regressed vs. a checked-in baseline.

Usage:
    check_regression.py CURRENT.json BASELINE.json [--max-drop 0.30]

Both files are BENCH_*.json emissions ({"bench": ..., "rows": [...],
"counters": {...}}). Rows are matched on every shared non-measurement field
(mode, entities, dataset, k, mem_fraction, workers, ...); for each matched
pair with a positive baseline `queries_per_sec`, the current value must be
at least (1 - max_drop) * baseline. Exits non-zero listing every regressed
row, so CI can gate on it. Every run-wide counter (lock_wait_seconds, the
QueryStats counters, ...) in either file is printed, in sorted order, as an
informational delta next to the gate.

A baseline may also carry `"exact_counters": [name, ...]`: each listed
counter must then equal the baseline's value exactly, or the check fails
and lists the mismatches. Pin only counters a run repeats bit for bit
(single-worker runs; see bench_scalability's `--workers 1`). Counters not
listed never fail the check.

Baseline json files live in bench/baselines/ and are refreshed deliberately
(copy a trusted run's BENCH_*.json) whenever the expected performance level
changes.
"""

import argparse
import json
import sys

# Fields that carry measurements rather than identity; everything else in a
# row is treated as a match key. "shards", "paged_tree", "compressed" and
# "writer_threads" are informational-only by design: sharded/paged-tree/
# compressed/mixed runs must gate directly against the corresponding plain
# baseline rows (each of those layers is required to be answer-identical,
# and sharding/compression also at least qps-neutral; the mixed
# reads-during-writes leg gates with a looser floor set in CI).
MEASUREMENT_FIELDS = {
    "queries_per_sec",
    "pe",
    "mean_entities_checked",
    "pages_read",
    "hit_rate",
    "index_seconds",
    "modeled_ms_per_query",
    "shards",
    "paged_tree",
    "compressed",
    "checksums",
    "writer_threads",
    # Snapshot-restart rows (mode "snapshot"): the persistence timings are
    # measurements reported next to the gated post-load qps, never match
    # keys — a baseline cut before a save-path change still gates.
    "snapshot_save_seconds",
    "restart_seconds",
}

def row_key(row):
    return tuple(sorted(
        (k, v) for k, v in row.items() if k not in MEASUREMENT_FIELDS))


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def find_match(base_row, current_rows):
    """The current row identifying the same configuration as base_row.

    Exact key match first. When the key sets differ — a newer bench added an
    identity field the baseline predates (or vice versa) — fall back to
    matching on the fields both rows share, so checked-in baselines stay
    usable across emission-schema growth. The fallback must be unique;
    an ambiguous baseline needs a refresh, so it matches nothing (warned).
    """
    base_key = row_key(base_row)
    exact = [r for r in current_rows if row_key(r) == base_key]
    if exact:
        return exact[0]
    base_fields = dict(base_key)

    def shared_fields_agree(row):
        cur_fields = dict(row_key(row))
        shared = set(base_fields) & set(cur_fields)
        return shared and all(base_fields[k] == cur_fields[k]
                              for k in shared)

    loose = [r for r in current_rows if shared_fields_agree(r)]
    if len(loose) == 1:
        return loose[0]
    if len(loose) > 1:
        print(f"WARNING: baseline row matches {len(loose)} current rows "
              f"on shared fields; skipping: {base_fields}")
    return None


def print_counter_deltas(current, baseline):
    """Informational: counter movements vs the baseline, printed alongside
    the qps gate instead of silently dropped. Never affects the exit code."""
    keys = sorted(set(current) | set(baseline))
    if not keys:
        return
    print("\ncounter deltas vs baseline (informational):")
    for key in keys:
        cur = current.get(key)
        base = baseline.get(key)
        if cur is None:
            print(f"  [INFO] {key}: (absent) <- baseline {base:g}")
        elif base is None:
            print(f"  [INFO] {key}: {cur:g} (no baseline)")
        elif base != 0:
            pct = 100.0 * (cur - base) / base
            print(f"  [INFO] {key}: {base:g} -> {cur:g} ({pct:+.1f}%)")
        else:
            print(f"  [INFO] {key}: {base:g} -> {cur:g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--max-drop", type=float, default=0.30,
                        help="maximum tolerated fractional qps drop")
    args = parser.parse_args()

    current_doc = load_doc(args.current)
    baseline_doc = load_doc(args.baseline)
    current = current_doc.get("rows", [])
    baseline = baseline_doc.get("rows", [])
    current_counters = current_doc.get("counters", {})
    baseline_counters = baseline_doc.get("counters", {})

    compared = 0
    regressions = []
    for base_row in baseline:
        base_qps = base_row.get("queries_per_sec", 0)
        if not base_qps or base_qps <= 0:
            continue
        key = row_key(base_row)
        cur_row = find_match(base_row, current)
        if cur_row is None:
            print(f"WARNING: baseline row missing from current run: {key}")
            continue
        cur_qps = cur_row.get("queries_per_sec", 0)
        compared += 1
        floor = (1.0 - args.max_drop) * base_qps
        status = "OK " if cur_qps >= floor else "REG"
        print(f"[{status}] qps {cur_qps:10.2f} vs baseline {base_qps:10.2f} "
              f"(floor {floor:10.2f})  {dict(key)}")
        if cur_qps < floor:
            regressions.append((key, base_qps, cur_qps))

    print_counter_deltas(current_counters, baseline_counters)
    exact = baseline_doc.get("exact_counters", [])
    # A listed name the baseline does not carry is a broken baseline, so it
    # mismatches even when the current run lacks it too.
    mismatches = [
        (name, baseline_counters.get(name), current_counters.get(name))
        for name in exact
        if name not in baseline_counters
        or current_counters.get(name) != baseline_counters[name]]

    if compared == 0:
        print("ERROR: no comparable rows between current and baseline")
        return 2
    if regressions:
        print(f"\n{len(regressions)} row(s) regressed more than "
              f"{args.max_drop:.0%} vs baseline:")
        for key, base_qps, cur_qps in regressions:
            print(f"  {dict(key)}: {base_qps:.2f} -> {cur_qps:.2f} qps")
    if mismatches:
        print(f"\n{len(mismatches)} exact counter(s) differ from baseline:")
        for name, base, cur in mismatches:
            print(f"  {name}: baseline {base} -> current {cur}")
    if regressions or mismatches:
        return 1
    print(f"\nAll {compared} row(s) within {args.max_drop:.0%} of baseline.")
    if exact:
        print(f"All {len(exact)} exact counter(s) equal the baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
