#!/usr/bin/env bash
# The repository benchmark (see bench/e2e/README.md).
#
#   bench/e2e/run.sh --seed=1                 every workload, end-to-end
#   bench/e2e/run.sh --seed=1 --traced        every workload, per-layer
#   bench/e2e/run.sh --workload serve_fresh --seed 3 --seconds 20 --trace 0
#
# Builds vsan_serve and e2e_driver (Release, into .bench_build/e2e at the
# repository root), then runs e2e_driver once per workload.  Each run
# prints `<workload> <metric> <value> <unit>` lines and, last, one JSON
# result line; records land in .bench_build/e2e-runs unless --out is given.
# Exits non-zero when the build fails or any output fails its check.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build="$root/.bench_build/e2e"
mkdir -p "$build"
log="$build/build.log"

if ! cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >"$log" 2>&1 ||
   ! cmake --build "$build" -j"$(nproc)" --target e2e_driver vsan_serve \
       >>"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "error: build failed (full log: $log)" >&2
  exit 1
fi

# Measure the library's defaults: no tuning, pooling or fault-injection
# overrides leak in from the caller's environment.
unset VSAN_NUM_THREADS VSAN_POOL VSAN_AUTOTUNE VSAN_TUNE_CONFIG \
      VSAN_AUTOTUNE_BUDGET_MS VSAN_FAULT VSAN_MIN_LOG_LEVEL

bench=("$build/e2e_driver" "--serve-binary=$build/vsan/tools/vsan_serve")
for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    exec "${bench[@]}" "$@"
  fi
done

status=0
for workload in serve_fresh serve_returning serve_longhist train_eval; do
  "${bench[@]}" --workload="$workload" "$@" || status=1
done
exit "$status"
