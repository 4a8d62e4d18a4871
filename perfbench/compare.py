#!/usr/bin/env python3
"""Compares the benchmark results of two commits (standard library only).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run, named <workload>.<seed>.json, whose
last line is the JSON object perfbench/run.py prints. Runs are paired by
(workload, seed). For every (workload, metric) the script prints each side's
median and quartiles, the share of pairs the change won (ties count for
neither side), and a verdict:

  gain        the change won at least 9 of 10 pairs and the medians differ,
              in the better direction, by more than the parent's own spread
              (the distance between its quartiles);
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's spread (quartile distance / median) exceeds the
              bound, and not every run of the change beats every run of the
              parent;
  worse within bound / better, not a gain / same
              none of the above, by the sign of the median gap.

Metrics without a bound (per-layer, from --trace 1 runs) get "gain" or
"no gain" only.

A metric that reads the same on every parent run is one draw of the
protocol's fixed randomness (every exact metric is), not a sample with a
spread, so it gets no gain or regression verdict: "unchanged" when every
change run reads the same value too, otherwise "moved better/worse:
protocol change (one draw)".

Exits 1 when any run was incorrect or any metric regressed.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        workload, _, seed = path.stem.rpartition(".")
        lines = path.read_text().strip().splitlines()
        runs[(workload, seed)] = json.loads(lines[-1])
    if not runs:
        raise SystemExit(f"no <workload>.<seed>.json files in {directory}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    if len(set(parent)) == 1:
        if set(change) == set(parent):
            return share, "unchanged"
        gap = sign * (statistics.median(change) - parent[0])
        direction = "better" if gap > 0 else "worse" if gap < 0 else "both ways"
        return share, f"moved {direction}: protocol change (one draw)"
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gap = sign * (c_med - p_med)
    if wins >= 0.9 * len(parent) and gap > p_q3 - p_q1:
        return share, "gain"
    if bound is None:
        return share, "no gain"
    if -gap > bound * abs(p_med):
        return share, "regression"
    every_run_better = (min(change) > max(parent) if better == "higher"
                        else max(change) < min(parent))
    if (spread(parent) > bound or spread(change) > bound) and \
            not every_run_better:
        return share, "unresolved"
    if gap < 0:
        return share, "worse within bound"
    return share, "better, not a gain" if gap > 0 else "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        raise SystemExit("no (workload, seed) pair present on both sides")

    failed = False
    for key in pairs:
        for side, runs in (("parent", parent), ("change", change)):
            if not runs[key]["correct"] or runs[key]["failed"]:
                print(f"INCORRECT {side} run {key[0]} seed {key[1]}")
                failed = True

    print(f"{'workload':<12} {'metric':<40} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>5}  verdict")
    for workload in sorted({w for w, _ in pairs}):
        keys = [k for k in pairs if k[0] == workload]
        names = [n for n in metrics
                 if all(n in parent[k]["metrics"] and n in change[k]["metrics"]
                        for k in keys)]
        for name in names:
            p = [parent[k]["metrics"][name]["value"] for k in keys]
            c = [change[k]["metrics"][name]["value"] for k in keys]
            share, result = verdict(p, c, metrics[name]["better"],
                                    metrics[name].get("bound"))
            failed |= result == "regression"
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
            print(f"{workload:<12} {name:<40} {fmt(p):>32} {fmt(c):>32} "
                  f"{share:>5.0%}  {result}")
    print(f"{len(pairs)} pairs; rule for a gain: change wins >= 90% of pairs "
          "and the median gap exceeds the parent's quartile distance")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
