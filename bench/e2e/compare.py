#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or derive bounds from one set.

    bench/e2e/compare.py BASE_DIR NEW_DIR        verdict per (workload, metric)
    bench/e2e/compare.py --derive-bounds DIR     spreads and suggested bounds

A directory holds the JSON records e2e_driver writes (one per run, named
<workload>.seed<N>.trace<T>.json; the Chrome traces beside them are
ignored).  For each (workload, metric) the table shows each side's median,
first and third quartiles (statistics.quantiles, n=4) and run count, then a
verdict against the metric's bound in BENCHMARK.json:

    worse       NEW's median is worse than BASE's by more than the bound
    better      NEW's median is better by more than the bound
    unchanged   within the bound either way
    unresolved  a side's interquartile range, as a share of its median, is
                wider than the bound, so within-bound cannot be told from
                noise -- unless every NEW run beats every BASE run
    info        per-layer metric: no bound, medians only

Exits 1 when any pair is `worse`.  --derive-bounds prints, per end-to-end
metric, the widest spread over workloads and the bound that keeps that
spread under a third of it: max(0.05, 3.5 x spread), capped at 0.25.
"""

import argparse
import glob
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(directory, trace):
    """{(workload, metric): [values]} from every record in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"),
                                 recursive=True)):
        if not path.endswith(".trace%d.json" % trace):
            continue
        with open(path) as f:
            record = json.load(f)
        for name, metric in record.get("metrics", {}).items():
            value = metric.get("value")
            if isinstance(value, (int, float)) and math.isfinite(value):
                runs.setdefault((record["workload"], name), []).append(value)
    return runs


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else math.inf
    return med, q1, q3, spread


def load_benchmark(path):
    with open(path) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: m for m in spec["per_layer"]})
    return metrics


def verdict(metric, base, new):
    if "bound" not in metric:
        return "info"
    lower = metric["better"] == "lower"
    (b_med, _, _, b_spread), (n_med, _, _, n_spread) = summary(base), summary(new)
    change = (n_med - b_med) / abs(b_med) if b_med else math.inf
    worse = change if lower else -change
    bound = metric["bound"]
    new_always_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if max(b_spread, n_spread) > bound:
        return "better" if new_always_better else "unresolved"
    if worse > bound:
        return "worse"
    if -worse > bound:
        return "better"
    return "unchanged"


def compare(base_dir, new_dir, benchmark, trace):
    metrics = load_benchmark(benchmark)
    base, new = load_runs(base_dir, trace), load_runs(new_dir, trace)
    keys = sorted(set(base) & set(new))
    if not keys:
        print("no (workload, metric) pair present in both directories")
        return 1
    print("%-16s %-32s %12s %12s %12s %4s %12s %12s %12s %4s %8s  %s" % (
        "workload", "metric", "base_med", "base_q1", "base_q3", "n",
        "new_med", "new_q1", "new_q3", "n", "change", "verdict"))
    failed = False
    for workload, name in keys:
        b, n = base[(workload, name)], new[(workload, name)]
        bs, ns = summary(b), summary(n)
        v = verdict(metrics.get(name, {}), b, n)
        failed = failed or v == "worse"
        change = (ns[0] - bs[0]) / abs(bs[0]) if bs[0] else math.inf
        print("%-16s %-32s %12.5g %12.5g %12.5g %4d %12.5g %12.5g %12.5g %4d %+7.1f%%  %s" % (
            workload, name, bs[0], bs[1], bs[2], len(b), ns[0], ns[1], ns[2],
            len(n), 100.0 * change, v))
    return 1 if failed else 0


def derive_bounds(directory, benchmark, trace):
    metrics = load_benchmark(benchmark)
    runs = load_runs(directory, trace)
    widest = {}
    print("%-16s %-32s %12s %4s %8s" % ("workload", "metric", "median", "n", "spread"))
    for (workload, name), values in sorted(runs.items()):
        med, _, _, spread = summary(values)
        print("%-16s %-32s %12.5g %4d %7.1f%%" % (workload, name, med,
                                                 len(values), 100.0 * spread))
        widest[name] = max(widest.get(name, 0.0), spread)
    print()
    print("%-32s %8s %10s %10s" % ("metric", "widest", "suggested", "current"))
    for name, spread in sorted(widest.items()):
        current = metrics.get(name, {}).get("bound")
        suggested = min(0.25, max(0.05, math.ceil(350.0 * spread) / 100.0))
        note = "" if 3.0 * spread < 0.25 else "  too noisy to gate at any bound"
        print("%-32s %7.1f%% %10.2f %10s%s" % (
            name, 100.0 * spread, suggested,
            "-" if current is None else "%.2f" % current, note))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dirs", nargs="+", help="BASE_DIR NEW_DIR, or DIR")
    parser.add_argument("--derive-bounds", action="store_true")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="compare untraced (0) or traced (1) records")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = parser.parse_args()
    if args.derive_bounds:
        if len(args.dirs) != 1:
            parser.error("--derive-bounds takes one directory")
        return derive_bounds(args.dirs[0], args.benchmark, args.trace)
    if len(args.dirs) != 2:
        parser.error("give BASE_DIR and NEW_DIR")
    return compare(args.dirs[0], args.dirs[1], args.benchmark, args.trace)


if __name__ == "__main__":
    sys.exit(main())
