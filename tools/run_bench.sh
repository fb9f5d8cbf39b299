#!/usr/bin/env bash
# Benchmark-regression harness: builds the tree in Release mode, runs the
# kernel (bench_micro_ops) and end-to-end (bench_micro_train) suites, and
# distills the google-benchmark JSON into BENCH_micro.json at the repo root
# — one record per benchmark with op, shape, threads, ns/iter and GFLOP/s
# (GFLOP/s only for the GEMM family, where items_processed counts
# multiply-adds, i.e. FLOPs = 2 * items).
#
# Usage:
#   tools/run_bench.sh [build_dir] [benchmark_filter]
#   tools/run_bench.sh --trace [build_dir]
#   tools/run_bench.sh --retrieval [build_dir]
#   tools/run_bench.sh --serve [build_dir]
#   tools/run_bench.sh --gate [build_dir] [benchmark_filter]
#
# If the google-benchmark library itself was a debug build (distro packages
# often are; the binary self-reports via library_build_type), the script
# warns — the project code is still Release, but the measurement loop
# carries extra overhead.  Set VSAN_REQUIRE_RELEASE_BENCH=1 to make that a
# hard failure, or configure with -DVSAN_BENCHMARK_SOURCE_DIR=<checkout> to
# build the library Release in-tree.
#
# Compare the emitted file against a checked-in BENCH_micro.json from before
# a kernel change to spot regressions; the 256^3 single-thread MatMul2D row
# is the headline number the blocked GEMM is tuned against.
#
# --trace: instead of the benchmark sweep, capture a span trace of one
# single-thread VsanTrainEpoch/80 run (VSAN_TRACE_OUT), fold it with
# trace_summary, and fail if the summary is empty — a smoke check that the
# tracer and its toolchain stay wired end to end.
#
# --gate: regression gate for CI.  Runs the same sweep as the default mode
# but distills into a temp file and diffs it against the committed
# BENCH_micro.json with tools/check_bench.py (tolerance ±15% ns/iter by
# default; override with VSAN_BENCH_TOLERANCE=0.25).  The baseline file is
# never overwritten; exit status 1 on any regression.
#
# --retrieval: run the recall-vs-speedup sweep (bench/bench_retrieval.cc)
# and land its JSON curves in BENCH_retrieval.json at the repo root — exact
# head scan, quantized scan, and the IVF nprobe frontier, single-thread, on
# a million-item uniform table and on VSAN item tables trained on the
# ML-1M-like and Beauty-like presets (the records' `table` field).  The
# checked-in file is the reference for the quantized and IVF claims.
#
# --serve: latency-vs-QPS curves for the serving daemon.  Trains a vsan
# checkpoint on the full-scale beauty corpus (12k items, d=64, a
# 10-step recent-history window — a catalog large enough that head
# scoring dominates the request), then for each batching
# policy — batch1 (max_batch=1, cache off), dynamic (max_batch=32, cache
# off), dynamic_cache (max_batch=32, 64 MB encoded-state cache) — starts
# vsan_serve on the exact backend and sweeps closed-loop vsan_loadgen
# workers (1..16, Zipf-1.5 users, 70% returning-user repeat mix — the
# skew concentrates traffic enough that the cache's steady-state hit rate
# actually reaches the repeat mix inside a short window).  The exact
# backend is the interesting one for batching: its scoring stage runs one
# M=batch GEMM over the [num_items x d] head per flush, amortizing the
# B-panel packing that an M=1 call pays per request (tensor/gemm.h).
# max-wait-us is kept small (200) so a closed loop that never fills
# max_batch flushes promptly instead of idling out the window.  One record
# per (policy, workers) point lands in BENCH_serve.json with qps,
# p50/p95/p99 and ns_per_iter = 1e9/qps so the check_bench.py gate reads
# it like any other time-per-unit metric.  After the sweep, a hot-reload
# latency record (op=serve_reload): median time from POST /reload to its
# 200 response, which the daemon sends only once the next generation is
# built, published, and serving — the control-plane cost of a zero-
# downtime swap.  The checked-in file is the regression reference for the
# >= 2x dynamic-batching QPS claim and the >= 30% cached-p50 claim.
# Knobs: VSAN_SERVE_SCALE (corpus scale, default 1.0),
# VSAN_SERVE_DURATION_S (seconds per point, default 4),
# VSAN_SERVE_WORKERS (default "1 2 4 8 16").
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

if [[ "${1:-}" == "--retrieval" ]]; then
  BUILD_DIR="${2:-$REPO_ROOT/build}"
  OUT="$REPO_ROOT/BENCH_retrieval.json"
  cmake -S "$REPO_ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_retrieval
  "$BUILD_DIR/bench/bench_retrieval" > "$OUT"
  echo "wrote $OUT"
  exit 0
fi

if [[ "${1:-}" == "--serve" ]]; then
  BUILD_DIR="${2:-$REPO_ROOT/build}"
  OUT="$REPO_ROOT/BENCH_serve.json"
  SCALE="${VSAN_SERVE_SCALE:-1.0}"
  DURATION="${VSAN_SERVE_DURATION_S:-4}"
  WORKER_SWEEP="${VSAN_SERVE_WORKERS:-1 2 4 8 16}"
  cmake -S "$REPO_ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target vsan_cli vsan_serve vsan_loadgen

  CKPT="$(mktemp --suffix=.ckpt)"
  SERVE_LOG="$(mktemp)"
  RESULTS="$(mktemp)"
  SERVE_PID=""
  cleanup_serve() {
    [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
    rm -f "$CKPT" "$SERVE_LOG" "$RESULTS"
  }
  trap cleanup_serve EXIT

  "$BUILD_DIR/tools/vsan_cli" train --dataset=beauty --scale="$SCALE" \
    --model=vsan --epochs=1 --d=64 --max-len=10 --batch=64 --seed=7 \
    --save="$CKPT"

  # policy  max_batch  cache_mb
  for spec in "batch1 1 0" "dynamic 32 0" "dynamic_cache 32 64"; do
    read -r POLICY MAX_BATCH CACHE_MB <<< "$spec"
    : > "$SERVE_LOG"
    "$BUILD_DIR/tools/vsan_serve" --checkpoint="$CKPT" --port=0 \
      --retrieval=exact --threads=16 --max-batch="$MAX_BATCH" \
      --max-wait-us=200 --max-queue=1024 --cache-mb="$CACHE_MB" \
      > "$SERVE_LOG" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
      grep -q '^READY' "$SERVE_LOG" && break
      sleep 0.2
    done
    PORT="$(sed -n 's/^READY port=\([0-9]*\).*/\1/p' "$SERVE_LOG")"
    if [[ -z "$PORT" ]]; then
      echo "error: vsan_serve did not come up for policy $POLICY" >&2
      cat "$SERVE_LOG" >&2
      exit 1
    fi
    for WORKERS in $WORKER_SWEEP; do
      echo "serve: policy=$POLICY workers=$WORKERS" >&2
      LINE="$("$BUILD_DIR/tools/vsan_loadgen" --port="$PORT" \
        --dataset=beauty --scale="$SCALE" --workers="$WORKERS" \
        --duration-s="$DURATION" --repeat-mix=0.7 --zipf=1.5 \
        --history-len=10 --seed=1 --json)"
      printf '%s\t%s\t%s\n' "$POLICY" "$CACHE_MB" "$LINE" >> "$RESULTS"
    done
    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID" || true
    SERVE_PID=""
  done

  # Hot-reload latency: POST /reload with no body re-loads the same
  # checkpoint; the 200 comes back only after the next generation is
  # loaded, index/stages built, published, and the superseded cache
  # entries purged — so response time IS time-to-first-new-generation-
  # response.  The old generation serves throughout (zero downtime); this
  # measures the control-plane swap cost, median of 5.
  : > "$SERVE_LOG"
  "$BUILD_DIR/tools/vsan_serve" --checkpoint="$CKPT" --port=0 \
    --retrieval=exact --threads=16 --max-batch=32 --max-wait-us=200 \
    --max-queue=1024 --cache-mb=64 > "$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    grep -q '^READY' "$SERVE_LOG" && break
    sleep 0.2
  done
  PORT="$(sed -n 's/^READY port=\([0-9]*\).*/\1/p' "$SERVE_LOG")"
  if [[ -z "$PORT" ]]; then
    echo "error: vsan_serve did not come up for the reload measurement" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  RELOAD_JSON="$(python3 - "$PORT" <<'EOF'
import http.client, json, statistics, sys, time
port = int(sys.argv[1])
reload_ms = []
for _ in range(5):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    start = time.monotonic_ns()
    conn.request("POST", "/reload", body=b"",
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    body = response.read()
    elapsed_ms = (time.monotonic_ns() - start) / 1e6
    conn.close()
    if response.status != 200:
        sys.stderr.write(f"error: POST /reload -> {response.status}: "
                         f"{body!r}\n")
        sys.exit(1)
    reload_ms.append(elapsed_ms)
print(json.dumps({"reloads": len(reload_ms),
                  "p50_ms": round(statistics.median(reload_ms), 3),
                  "max_ms": round(max(reload_ms), 3)}))
EOF
)"
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID" || true
  SERVE_PID=""

  python3 - "$RESULTS" "$OUT" "$RELOAD_JSON" <<'EOF'
import json, sys
benchmarks = []
for line in open(sys.argv[1]):
    policy, cache_mb, payload = line.rstrip("\n").split("\t", 2)
    rec = json.loads(payload)
    benchmarks.append({
        "op": "serve",
        "model": "vsan",
        "policy": policy,
        "cache": "on" if int(cache_mb) > 0 else "off",
        "workers": rec["workers"],
        "qps": round(rec["qps"], 2),
        "p50_ms": round(rec["p50_ms"], 4),
        "p95_ms": round(rec["p95_ms"], 4),
        "p99_ms": round(rec["p99_ms"], 4),
        "requests": rec["requests"],
        "rejected": rec["rejected"],
        "resets": rec.get("resets", 0),
        "retries": rec.get("retries", 0),
        "gave_ups": rec.get("gave_ups", 0),
        "errors": rec["errors"],
        "cache_hits": rec["cache_hits"],
        "repeat_mix": rec["repeat_mix"],
        # 1e9 / qps: time per served request, so check_bench.py's default
        # higher-is-worse gate applies unchanged.
        "ns_per_iter": round(1e9 / rec["qps"], 1) if rec["qps"] > 0 else None,
    })
reload_rec = json.loads(sys.argv[3])
benchmarks.append({
    "op": "serve_reload",
    "model": "vsan",
    "policy": "dynamic_cache",
    "reloads": reload_rec["reloads"],
    "p50_ms": reload_rec["p50_ms"],
    "max_ms": reload_rec["max_ms"],
    # Median swap latency as ns so a check_bench.py diff of two
    # BENCH_serve.json files gates reload cost like any other record.
    "ns_per_iter": round(reload_rec["p50_ms"] * 1e6, 1),
})
json.dump({"op_note": "serving daemon latency-vs-QPS (closed loop)",
           "benchmarks": benchmarks}, open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]} ({len(benchmarks)} records)")
EOF
  exit 0
fi

if [[ "${1:-}" == "--trace" ]]; then
  BUILD_DIR="${2:-$REPO_ROOT/build}"
  cmake -S "$REPO_ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target bench_micro_train trace_summary
  TRACE_JSON="$(mktemp --suffix=.json)"
  SUMMARY="$(mktemp)"
  trap 'rm -f "$TRACE_JSON" "$SUMMARY"' EXIT
  VSAN_TRACE_OUT="$TRACE_JSON" "$BUILD_DIR/bench/bench_micro_train" \
    --benchmark_filter='BM_VsanTrainEpoch_SeqLen/80/1$' \
    --benchmark_min_time=0.1
  "$BUILD_DIR/tools/trace_summary" "$TRACE_JSON" | tee "$SUMMARY"
  if ! grep -q '^by_category' "$SUMMARY"; then
    echo "error: trace_summary produced no category table" >&2
    exit 1
  fi
  exit 0
fi

# Warn (or, under VSAN_REQUIRE_RELEASE_BENCH=1, fail) when the
# google-benchmark library linked into a just-produced JSON was a debug
# build.  $1 = benchmark JSON path.
check_bench_library() {
  local build_type
  build_type="$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["context"].get("library_build_type", "unknown"))
' "$1")"
  if [[ "$build_type" != "release" ]]; then
    echo "warning: google-benchmark library build type is '$build_type'," \
      "not 'release'; timings include debug-library overhead (configure" \
      "with -DVSAN_BENCHMARK_SOURCE_DIR=<checkout> for a Release lib)" >&2
    if [[ "${VSAN_REQUIRE_RELEASE_BENCH:-0}" == "1" ]]; then
      echo "error: VSAN_REQUIRE_RELEASE_BENCH=1 and the benchmark library" \
        "is not a release build" >&2
      exit 1
    fi
  fi
}

GATE=0
if [[ "${1:-}" == "--gate" ]]; then
  GATE=1
  shift
fi

BUILD_DIR="${1:-$REPO_ROOT/build}"
FILTER="${2:-}"
OUT="$REPO_ROOT/BENCH_micro.json"
if [[ "$GATE" == "1" ]]; then
  if [[ ! -f "$OUT" ]]; then
    echo "error: --gate needs a committed $OUT baseline" >&2
    exit 1
  fi
  BASELINE="$OUT"
  OUT="$(mktemp --suffix=.json)"
fi

cmake -S "$REPO_ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_micro_ops bench_micro_train

OPS_JSON="$(mktemp)"
TRAIN_JSON="$(mktemp)"
POOLOFF_JSON="$(mktemp)"
if [[ "$GATE" == "1" ]]; then
  trap 'rm -f "$OPS_JSON" "$TRAIN_JSON" "$POOLOFF_JSON" "$OUT"' EXIT
else
  trap 'rm -f "$OPS_JSON" "$TRAIN_JSON" "$POOLOFF_JSON"' EXIT
fi

BENCH_ARGS=(--benchmark_format=json)
if [[ -n "$FILTER" ]]; then
  BENCH_ARGS+=("--benchmark_filter=$FILTER")
fi

"$BUILD_DIR/bench/bench_micro_ops" "${BENCH_ARGS[@]}" > "$OPS_JSON"
check_bench_library "$OPS_JSON"
"$BUILD_DIR/bench/bench_micro_train" "${BENCH_ARGS[@]}" > "$TRAIN_JSON"
# The allocation-churn probe again with the tensor pool disabled, so the
# emitted file carries a pool-on / pool-off pair for the same workload.
VSAN_POOL=0 "$BUILD_DIR/bench/bench_micro_train" \
  --benchmark_format=json \
  --benchmark_filter='BM_AllocChurn' > "$POOLOFF_JSON"

python3 "$REPO_ROOT/tools/distill_bench.py" \
  "$OPS_JSON" "$TRAIN_JSON" "$POOLOFF_JSON" "$OUT"

if [[ "$GATE" == "1" ]]; then
  python3 "$REPO_ROOT/tools/check_bench.py" \
    ${VSAN_BENCH_TOLERANCE:+--tolerance="$VSAN_BENCH_TOLERANCE"} \
    "$BASELINE" "$OUT"
fi
