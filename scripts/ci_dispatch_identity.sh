#!/usr/bin/env bash
# CI check for the kernel backend determinism contract (DESIGN.md §6): the
# counts section of a metrics snapshot — and the grid summary itself — must be
# byte-identical between a default (SIMD) build and a TSG_ENABLE_SIMD=OFF
# (scalar) build, and whatever TSG_THREADS is set to. Only the wall-clock
# "timings" section may differ. The backend is a build-time choice, so the two
# backends come from two build trees.
#
#   1. Reference run: SIMD build, TSG_THREADS=1.
#   2. Scalar run: scalar build, same seed/scale, TSG_THREADS=1.
#   3. SIMD run at TSG_THREADS=2.
#   All grid summaries and timing-stripped snapshots must compare equal.
#
# Usage: scripts/ci_dispatch_identity.sh <simd_build_dir> <scalar_build_dir>
# Each tree needs bench/bench_smoke_grid built. The work dir (under
# TSG_WORK_ROOT, default /tmp) is kept on failure so CI can archive the
# summaries and metrics snapshots for debugging.

set -euo pipefail
# shellcheck source=scripts/ci_lib.sh
source "$(dirname "${BASH_SOURCE[0]}")/ci_lib.sh"

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <simd_build_dir> <scalar_build_dir>" >&2
  exit 2
fi
SIMD_DIR="$1"
SCALAR_DIR="$2"

check_tree() {  # check_tree <build_dir> <expected TSG_ENABLE_SIMD value>
  local dir="$1" want="$2"
  if [[ ! -x "$dir/bench/bench_smoke_grid" ]]; then
    echo "error: $dir/bench/bench_smoke_grid not found or not executable" \
      "(build first)" >&2
    exit 1
  fi
  # Two trees of the same backend would make every comparison vacuous.
  if ! grep -qi "^TSG_ENABLE_SIMD:BOOL=$want\$" "$dir/CMakeCache.txt"; then
    echo "error: $dir is not a TSG_ENABLE_SIMD=$want build" >&2
    exit 1
  fi
}
check_tree "$SIMD_DIR" ON
check_tree "$SCALAR_DIR" OFF

WORK_ROOT="${TSG_WORK_ROOT:-/tmp}"
mkdir -p "$WORK_ROOT"
WORK="$(mktemp -d "$WORK_ROOT/tsg_dispatch_identity.XXXXXX")"
cleanup() {
  local rc=$?
  if [[ "$rc" -eq 0 ]]; then
    rm -rf "$WORK"
  else
    echo "FAILED (exit $rc): keeping $WORK for debugging" >&2
  fi
}
trap cleanup EXIT

export TSGBENCH_SCALE=0.1
export TSGBENCH_SEED=7

run_cell() {  # run_cell <name> <build_dir> <threads>
  local name="$1" dir="$2" threads="$3"
  echo "== $name ($dir, TSG_THREADS=$threads)"
  TSG_THREADS="$threads" TSGBENCH_OUT="$WORK/$name" "$dir/bench/bench_smoke_grid" \
    --metrics_out="$WORK/$name/metrics.json"
  strip_timings "$WORK/$name/metrics.json" "$WORK/$name/counts.json"
}

run_cell simd1 "$SIMD_DIR" 1
run_cell scalar1 "$SCALAR_DIR" 1
run_cell simd2 "$SIMD_DIR" 2

echo "== compare grid summaries (byte-identical)"
cmp "$WORK/simd1"/grid_summary_*.json "$WORK/scalar1"/grid_summary_*.json
cmp "$WORK/simd1"/grid_summary_*.json "$WORK/simd2"/grid_summary_*.json

echo "== compare timing-stripped metric snapshots (byte-identical)"
cmp "$WORK/simd1/counts.json" "$WORK/scalar1/counts.json"
cmp "$WORK/simd1/counts.json" "$WORK/simd2/counts.json"

echo "backend identity OK: counts identical across backends and threads"
