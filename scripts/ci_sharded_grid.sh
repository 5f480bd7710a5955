#!/usr/bin/env bash
# CI gate for the multi-process sharded grid runner (DESIGN.md §10):
#
#   1. Reference: a single-process run of the tiny 2x2 smoke grid.
#   2. Kill: one worker dies (hard _exit via TSG_SMOKE_KILL_AFTER=1,
#      simulating SIGKILL/OOM) between claiming its second cell's lease and
#      checkpointing it — exactly one checkpoint and one dangling lease remain.
#   3. Reclaim: three survivor workers run concurrently against the same
#      checkpoint directory. They must finish every remaining cell, steal the
#      dead worker's lease (grid.cells.reclaimed >= 1 summed across their
#      metrics snapshots, and the survivors together compute exactly the 3
#      remaining cells: grid.cells.computed = 3), leave no lease behind, and
#      write a grid summary byte-identical to the reference run's.
#   4. Rerun: a fourth worker over the finished grid replays every cell. It
#      must load all 4 cells from their checkpoints (grid.cells.resumed = 4),
#      compute none (grid.cells.computed = 0) and write that same summary.
#
# Usage: scripts/ci_sharded_grid.sh [build_dir]   (default: build)
# The work dir (under TSG_WORK_ROOT, default /tmp) is kept on failure so CI can
# archive the checkpoints, leases, and metrics snapshots for debugging.

set -euo pipefail

BUILD_DIR="${1:-build}"
BIN="$BUILD_DIR/bench/bench_smoke_grid"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found or not executable (build first)" >&2
  exit 1
fi

WORK_ROOT="${TSG_WORK_ROOT:-/tmp}"
mkdir -p "$WORK_ROOT"
WORK="$(mktemp -d "$WORK_ROOT/tsg_sharded_grid.XXXXXX")"
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
export TSG_THREADS=1   # Serial cell sweep inside each worker: the kill point is deterministic.

counter_sum() {  # counter_sum <name> <metrics.json...> -> summed value (absent files/keys count 0)
  python3 - "$@" <<'EOF'
import json, sys
name, total = sys.argv[1], 0
for path in sys.argv[2:]:
    with open(path) as f:
        total += json.load(f)["counts"]["counters"].get(name, 0)
print(total)
EOF
}

expect_eq() {  # expect_eq <label> <got> <expected>
  if [[ "$2" -ne "$3" ]]; then
    echo "error: $1 = $2, expected $3" >&2
    exit 1
  fi
}

echo "== 1. single-process reference run"
TSGBENCH_OUT="$WORK/ref" "$BIN"

OUT="$WORK/sharded"

echo "== 2. worker killed mid-cell (after 1 fit, holding its 2nd lease)"
rc=0
TSGBENCH_OUT="$OUT" TSG_SMOKE_KILL_AFTER=1 "$BIN" || rc=$?
if [[ "$rc" -ne 3 ]]; then
  echo "error: kill run exited with $rc, expected the simulated-kill code 3" >&2
  exit 1
fi
ckpts=$(find "$OUT" -name '*.json' -path '*grid_ckpt_*' | wc -l)
leases=$(find "$OUT" -name '*.lease' | wc -l)
expect_eq "checkpoints after kill" "$ckpts" 1
expect_eq "dangling leases after kill" "$leases" 1

echo "== 3. three survivor workers reclaim the dead cell and finish the grid"
pids=()
for i in 1 2 3; do
  TSGBENCH_OUT="$OUT" "$BIN" \
    --metrics_out="$OUT/metrics_worker$i.json" >"$OUT/worker$i.log" 2>&1 &
  pids+=("$!")
done
for i in 1 2 3; do
  if ! wait "${pids[$((i - 1))]}"; then
    echo "error: survivor worker $i failed:" >&2
    cat "$OUT/worker$i.log" >&2
    exit 1
  fi
done
ckpts=$(find "$OUT" -name '*.json' -path '*grid_ckpt_*' | wc -l)
leases=$(find "$OUT" -name '*.lease' | wc -l)
expect_eq "checkpoints after survivors" "$ckpts" 4
expect_eq "leases after survivors" "$leases" 0
snapshots=("$OUT"/metrics_worker{1,2,3}.json)
reclaimed=$(counter_sum "grid.cells.reclaimed" "${snapshots[@]}")
if [[ "$reclaimed" -lt 1 ]]; then
  echo "error: grid.cells.reclaimed = $reclaimed across survivors, expected >= 1" >&2
  exit 1
fi
computed=$(counter_sum "grid.cells.computed" "${snapshots[@]}")
expect_eq "cells computed by survivors" "$computed" 3
cmp "$OUT"/grid_summary_*.json "$WORK/ref"/grid_summary_*.json

echo "== 4. a fourth worker over the finished grid replays every cell"
TSGBENCH_OUT="$OUT" "$BIN" --metrics_out="$OUT/metrics_rerun.json"
expect_eq "cells the rerun loaded from checkpoints" \
  "$(counter_sum "grid.cells.resumed" "$OUT/metrics_rerun.json")" 4
expect_eq "cells the rerun had to compute itself" \
  "$(counter_sum "grid.cells.computed" "$OUT/metrics_rerun.json")" 0
cmp "$OUT"/grid_summary_*.json "$WORK/ref"/grid_summary_*.json

echo "sharded grid OK: kill reclaimed by a survivor, rerun summary byte-identical"
