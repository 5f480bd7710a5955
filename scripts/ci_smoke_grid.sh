#!/usr/bin/env bash
# CI smoke test for the bench grid's fault-tolerance and observability layers:
#
#   1. Start a tiny 2x2 grid and kill it (hard _exit, no cleanup) after 2 fits,
#      holding the lease of the cell it was computing.
#   2. Resume: the run must load exactly the 2 checkpointed cells, reclaim the
#      dead run's lease, finish the rest, report grid.cells.resumed=2 and
#      grid.cells.reclaimed=1 in its --metrics_out snapshot, and leave no lease.
#   3. The resumed grid summary must be byte-identical to a clean run's.
#   4. Two clean runs at different TSG_THREADS must produce identical metric
#      snapshots once the wall-clock "timings" section is stripped.
#   5. Rerunning the finished clean grid replays all 4 cells from their
#      checkpoints (grid.cells.resumed=4, no grid.cells.computed) and rewrites
#      a byte-identical summary.
#
# Usage: scripts/ci_smoke_grid.sh [build_dir]   (default: build)
# The work dir (under TSG_WORK_ROOT, default /tmp) is kept on failure so CI can
# archive the checkpoints and metrics snapshots for debugging.

set -euo pipefail
# shellcheck source=scripts/ci_lib.sh
source "$(dirname "${BASH_SOURCE[0]}")/ci_lib.sh"

BUILD_DIR="${1:-build}"
BIN="$BUILD_DIR/bench/bench_smoke_grid"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found or not executable (build first)" >&2
  exit 1
fi

WORK_ROOT="${TSG_WORK_ROOT:-/tmp}"
mkdir -p "$WORK_ROOT"
WORK="$(mktemp -d "$WORK_ROOT/tsg_smoke_grid.XXXXXX")"
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
export TSG_THREADS=1   # Serial cell sweep: the kill point is deterministic.

echo "== 1. interrupted run (kill after 2 fits)"
rc=0
TSGBENCH_OUT="$WORK/resumed" TSG_SMOKE_KILL_AFTER=2 "$BIN" || rc=$?
if [[ "$rc" -ne 3 ]]; then
  echo "error: kill run exited with $rc, expected the simulated-kill code 3" >&2
  exit 1
fi
ckpts=$(find "$WORK/resumed" -name '*.json' -path '*grid_ckpt_*' | wc -l)
if [[ "$ckpts" -ne 2 ]]; then
  echo "error: expected 2 checkpoints after the kill, found $ckpts" >&2
  exit 1
fi

echo "== 2. resume run"
TSGBENCH_OUT="$WORK/resumed" "$BIN" --metrics_out="$WORK/resumed/metrics.json"
for want in '"grid.cells.resumed":2' '"grid.cells.reclaimed":1'; do
  if ! grep -q "$want" "$WORK/resumed/metrics.json"; then
    echo "error: metrics snapshot does not report $want" >&2
    grep -o '"grid[^,}]*' "$WORK/resumed/metrics.json" >&2 || true
    exit 1
  fi
done
leases=$(find "$WORK/resumed" -name '*.lease' | wc -l)
if [[ "$leases" -ne 0 ]]; then
  echo "error: $leases lease file(s) left after the resume" >&2
  exit 1
fi

echo "== 3. clean run + summary byte-compare"
TSGBENCH_OUT="$WORK/clean1" "$BIN" --metrics_out="$WORK/clean1/metrics.json"
cmp "$WORK/resumed"/grid_summary_*.json "$WORK/clean1"/grid_summary_*.json

echo "== 4. clean run at TSG_THREADS=2 + timing-stripped metrics compare"
TSG_THREADS=2 TSGBENCH_OUT="$WORK/clean2" "$BIN" \
  --metrics_out="$WORK/clean2/metrics.json"
cmp "$WORK/clean1"/grid_summary_*.json "$WORK/clean2"/grid_summary_*.json
strip_timings "$WORK/clean1/metrics.json" "$WORK/clean1/counts.json"
strip_timings "$WORK/clean2/metrics.json" "$WORK/clean2/counts.json"
cmp "$WORK/clean1/counts.json" "$WORK/clean2/counts.json"

echo "== 5. rerun over the finished clean grid replays every cell"
cp "$WORK/clean1"/grid_summary_*.json "$WORK/clean1_summary.json"
TSGBENCH_OUT="$WORK/clean1" "$BIN" --metrics_out="$WORK/clean1/replay.json"
if ! grep -q '"grid.cells.resumed":4' "$WORK/clean1/replay.json"; then
  echo "error: replay snapshot does not report grid.cells.resumed=4" >&2
  grep -o '"grid[^,}]*' "$WORK/clean1/replay.json" >&2 || true
  exit 1
fi
if grep -q '"grid.cells.computed"' "$WORK/clean1/replay.json"; then
  echo "error: replay over a finished grid computed cells" >&2
  exit 1
fi
cmp "$WORK/clean1_summary.json" "$WORK/clean1"/grid_summary_*.json

echo "smoke grid OK: kill/resume byte-identical, metrics deterministic, replay computes nothing"
