#!/usr/bin/env bash
# Rebuilds everything, runs the full test suite, and regenerates every
# table/figure of the paper, collecting outputs at the repository root
# (test_output.txt, bench_output.txt) and CSVs in build/bench/.
#
# Knobs (see README): VSAN_BENCH_SCALE, VSAN_BENCH_EPOCHS, VSAN_BENCH_D,
# VSAN_BENCH_SEEDS.  The defaults were sized to take about 45 minutes; the
# reference host has 4 cores (nproc = 4).
set -euo pipefail
cd "$(dirname "$0")"

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Whole-suite sanitizer pass: one ASan+UBSan build runs every test.  The
# pool stays enabled so poisoning of released buffers is actually
# exercised, and UBSan traps on the misaligned reads and overflowing fields
# a parser walking corrupted bytes could hit.
cmake -B build-asan-ubsan -G Ninja -DVSAN_ASAN=ON -DVSAN_UBSAN=ON
cmake --build build-asan-ubsan
ctest --test-dir build-asan-ubsan 2>&1 | tee test_output_asan_ubsan.txt

# Whole-suite ThreadSanitizer pass (a separate build: TSan excludes ASan).
cmake -B build-tsan -G Ninja -DVSAN_TSAN=ON
cmake --build build-tsan
ctest --test-dir build-tsan 2>&1 | tee test_output_tsan.txt

# Crash-safety sweep: the fault-labeled tests in the plain build, for the
# kill-and-resume subprocess scenarios.
ctest --test-dir build -L fault 2>&1 | tee test_output_fault.txt

# Fast-retrieval suite by label: streaming top-k vs partial_sort, int8
# error bounds, IVF oracle equivalence, million-item RSS audit.  (Also in
# the full and sanitizer runs above; the explicit selector keeps the layer
# runnable in isolation.)
ctest --test-dir build -L retrieval 2>&1 | tee test_output_retrieval.txt

# Live observability plane by label: Prometheus writer/parser, the embedded
# HTTP metrics server (routes, malformed requests, concurrent scrapers
# during a live training run), and the sampling profiler.  (Also in the
# full and sanitizer runs above.)
ctest --test-dir build -L http 2>&1 | tee test_output_http.txt

# Serving plane by label: cache/batcher semantics, batched-encode bitwise
# equality, serve-vs-offline oracle equality, and the HTTP daemon lifecycle
# (readiness gate, 429 shedding, graceful drain).  (Also in the full and
# sanitizer runs above.)
ctest --test-dir build -L serve 2>&1 | tee test_output_serve.txt

# Chaos sweep by label: the VSAN_FAULT serve directives driven through the
# real daemon — encoder stalls vs request deadlines (504), mid-response
# socket resets, corrupt-checkpoint hot reloads (409, old generation keeps
# serving), cache-write loss, the malformed-body fuzz matrix, and hot
# reload under concurrent load.  The TSan run above re-races reload and
# shutdown against in-flight traffic; the ASan+UBSan run covers the fuzz
# matrix's walk over the JSON parser's depth cap and every truncation point.
ctest --test-dir build -L chaos 2>&1 | tee test_output_chaos.txt

(
  cd build/bench
  for b in ./bench_*; do
    echo "=== RUN $b ==="
    "$b"
  done
) 2>&1 | tee bench_output.txt

# Performance gate: re-runs the committed micro-benchmarks and diffs the
# distilled ns/iter against BENCH_micro.json (tools/check_bench.py).
# Nonzero exit on regression fails the reproduce run by design.  The
# checker's default tolerance is ±15%, but single-run google-benchmark
# records on shared/virtualized hosts swing ±25% run-to-run on the
# macro train-epoch family (measured back-to-back on the baseline host),
# so reproduce uses ±35% unless the caller tightens it for quiet CI
# hardware via VSAN_BENCH_TOLERANCE.
VSAN_BENCH_TOLERANCE="${VSAN_BENCH_TOLERANCE:-0.35}" \
  tools/run_bench.sh --gate build 2>&1 | tee bench_gate.txt

echo "done: test_output.txt," \
     "test_output_{asan_ubsan,tsan,fault,retrieval,http,serve,chaos}.txt," \
     "bench_output.txt, bench_gate.txt, build/bench/*.csv"
