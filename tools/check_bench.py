#!/usr/bin/env python3
"""Diffs a freshly distilled bench file against the checked-in baseline.

  check_bench.py BASELINE FRESH [--tolerance=0.15] [--metric=ns_per_iter]

Records are matched by identity key (op, shape, threads, pool, and — for
the serving-daemon records of BENCH_serve.json — model, policy, cache,
workers; whichever are present in the baseline record); a
fresh record's `ns_per_iter` more than `tolerance` above its baseline twin
is a regression.  Serve records carry ns_per_iter = 1e9 / qps, so the same
time-per-unit gate direction applies (higher = slower).  Exit status:

  0  every matched record within tolerance
  1  at least one regression (or a baseline record with no fresh twin)
  2  usage / unreadable input

Improvements (fresh faster than baseline) and fresh-only records are
reported but never fail the check — new benchmarks land before their
baseline does.  Invoked by `tools/run_bench.sh --gate`, which distills to a
temp file and checks it against BENCH_micro.json without overwriting the
baseline; tune the threshold with --tolerance or the VSAN_BENCH_TOLERANCE
environment variable (the flag wins).
"""

import json
import os
import sys

KEY_FIELDS = ("op", "shape", "threads", "pool", "model", "policy", "cache",
              "workers")


def record_key(rec):
    return tuple(rec.get(field) for field in KEY_FIELDS)


def load_records(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: cannot read {path}: {e}\n")
        sys.exit(2)
    records = {}
    for rec in data.get("benchmarks", []):
        records[record_key(rec)] = rec
    return records


def describe(key):
    return " ".join(
        f"{field}={value}"
        for field, value in zip(KEY_FIELDS, key)
        if value is not None
    )


def main(argv):
    tolerance = float(os.environ.get("VSAN_BENCH_TOLERANCE", "0.15"))
    metric = "ns_per_iter"
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        elif arg.startswith("--metric="):
            metric = arg.split("=", 1)[1]
        elif arg.startswith("--"):
            sys.stderr.write(f"error: unknown flag {arg}\n{__doc__}")
            return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        sys.stderr.write(__doc__)
        return 2
    baseline = load_records(paths[0])
    fresh = load_records(paths[1])

    regressions = []
    improvements = []
    missing = []
    for key, base_rec in sorted(baseline.items(), key=str):
        fresh_rec = fresh.get(key)
        if fresh_rec is None:
            missing.append(key)
            continue
        base_value = base_rec.get(metric)
        fresh_value = fresh_rec.get(metric)
        if not base_value or fresh_value is None:
            continue
        ratio = fresh_value / base_value
        line = (f"{describe(key)}: {base_value:.1f} -> {fresh_value:.1f} "
                f"({100.0 * (ratio - 1.0):+.1f}%)")
        if ratio > 1.0 + tolerance:
            regressions.append(line)
        elif ratio < 1.0 - tolerance:
            improvements.append(line)

    new_records = [key for key in fresh if key not in baseline]

    print(f"checked {len(baseline)} baseline records against {paths[1]} "
          f"(metric {metric}, tolerance ±{100.0 * tolerance:.0f}%)")
    for line in improvements:
        print(f"  improved:   {line}")
    for key in new_records:
        print(f"  fresh-only: {describe(key)}")
    for key in missing:
        print(f"  MISSING:    {describe(key)} (in baseline, not in fresh run)")
    for line in regressions:
        print(f"  REGRESSED:  {line}")
    if regressions or missing:
        print(f"FAIL: {len(regressions)} regression(s), "
              f"{len(missing)} missing record(s)")
        return 1
    print("OK: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
