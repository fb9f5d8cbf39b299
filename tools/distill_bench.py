#!/usr/bin/env python3
"""Distills google-benchmark JSON into the repo's checked-in BENCH_micro.json.

Invoked by tools/run_bench.sh:

  distill_bench.py OPS_JSON TRAIN_JSON POOLOFF_JSON OUT
      The full micro sweep -> BENCH_micro.json.  POOLOFF_JSON is the
      VSAN_POOL=0 rerun of the allocation-churn probe; its records are
      tagged pool=off so both pool modes sit side by side.

One record per benchmark with op, shape, threads, ns/iter, and GFLOP/s for
the GEMM family (items_processed counts multiply-adds, FLOPs = 2 * items).
"""

import json
import sys

# Benchmarks whose last argument is the thread-pool size (the ThreadCounts()
# sweep in bench/*.cc).  Everything else is single-thread.
THREADED = {
    "BM_MatMul2D", "BM_MatMul2DTransposed", "BM_BatchedMatMul",
    "BM_SoftmaxLastDim", "BM_AttentionBlockForward",
    "BM_VsanTrainEpoch_SeqLen", "BM_VsanTrainEpoch_Dim",
    "BM_SasRecTrainEpoch_SeqLen", "BM_Gru4RecTrainEpoch_SeqLen",
    "BM_EvaluateRanking",
}
# GEMM-family benchmarks: items_processed counts multiply-adds, so
# FLOPs/s = 2 * items/s.
GEMM_OPS = {
    "BM_MatMul2D", "BM_MatMul2DTransposed", "BM_BatchedMatMul",
    "BM_GemmModelShape",
}
# Names ScoreBatch/logits/attention shapes in BM_GemmModelShape's args, in
# registration order (bench/bench_micro_ops.cc).
MODEL_SHAPE_NAMES = {
    (256, 4096, 64): "score_batch",
    (1024, 4096, 64): "logits",
    (200, 200, 64): "attn_scores",
}


def parse_record(b):
    """One google-benchmark entry -> one distilled record, or None."""
    if b.get("run_type") == "aggregate":
        return None
    parts = b["name"].split("/")
    op, args = parts[0], parts[1:]
    if op in THREADED and args:
        threads = int(args[-1])
        shape = "x".join(args[:-1]) or "-"
    elif op == "BM_GemmModelShape":
        # Args are (m, n, k); name the known model shapes.
        threads = 1
        m, n, k = (int(a) for a in args)
        name = MODEL_SHAPE_NAMES.get((m, n, k))
        shape = f"{m}x{n}x{k}" + (f" ({name})" if name else "")
    else:
        threads = 1
        shape = "x".join(args) or "-"
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    rec = {
        "op": op,
        "shape": shape,
        "threads": threads,
        "ns_per_iter": round(
            b["real_time"] * unit_ns[b.get("time_unit", "ns")], 1),
    }
    if op in GEMM_OPS and "items_per_second" in b:
        rec["gflops"] = round(2.0 * b["items_per_second"] / 1e9, 2)
    if op == "BM_AllocChurn":
        if "pool_hit_rate" in b:
            rec["pool_hit_rate"] = round(b["pool_hit_rate"], 4)
    return rec


def make_context(data):
    return {
        "date": data["context"].get("date"),
        "num_cpus": data["context"].get("num_cpus"),
        "mhz_per_cpu": data["context"].get("mhz_per_cpu"),
        # How the google-benchmark library itself was built (the project is
        # always built Release by run_bench.sh; a "debug" here means the
        # distro's benchmark package carries assertion overhead in the
        # measurement loop — see VSAN_BENCHMARK_SOURCE_DIR).
        "benchmark_library_build_type":
            data["context"].get("library_build_type"),
    }


def distill_micro(ops_path, train_path, pooloff_path, out_path):
    records = []
    context = None
    for path in (ops_path, train_path, pooloff_path):
        pool_mode = "off" if path == pooloff_path else "on"
        with open(path) as f:
            data = json.load(f)
        if context is None:
            context = make_context(data)
        for b in data.get("benchmarks", []):
            rec = parse_record(b)
            if rec is None:
                continue
            if rec["op"] == "BM_AllocChurn":
                rec["pool"] = pool_mode
            records.append(rec)
    write_out(out_path, context, records)


def write_out(out_path, context, records):
    with open(out_path, "w") as f:
        json.dump({"context": context, "benchmarks": records}, f, indent=1)
        f.write("\n")
    print(f"wrote {out_path} ({len(records)} records)")


def main(argv):
    if len(argv) == 5:
        distill_micro(argv[1], argv[2], argv[3], argv[4])
    else:
        sys.stderr.write(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
