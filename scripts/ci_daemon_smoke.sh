#!/usr/bin/env bash
# CI gate for the tsgd benchmark daemon (DESIGN.md §11):
#
#   1. Reference: the 1x2 grid (TimeVAE x DLG,Stock) via one batch grid
#      worker — the bytes the daemon must reproduce.
#   2. Concurrency: three client sessions submit fit jobs at once (distinct
#      tenants); all must succeed, and a warm generate must digest-match a
#      second generate for the same (count, gen_seed).
#   3. Kill: the daemon is SIGKILLed mid-grid, after its first cell checkpoint
#      lands but before the second cell finishes — simulating an OOM kill.
#   4. Resume: a fresh daemon on the same out dir re-runs the grid. It must
#      compute exactly the one missing cell (the "computed" result member and
#      the grid.cells.reclaimed counter prove resume, not recompute) and write
#      a grid summary byte-identical to the batch reference.
#   5. Drain: SIGTERM must exit 0 after answering every session.
#
# Usage: scripts/ci_daemon_smoke.sh [build_dir]   (default: build)
# The work dir (under TSG_WORK_ROOT, default /tmp) is kept on failure so CI can
# archive daemon logs, checkpoints, and metrics snapshots.

set -euo pipefail
# shellcheck source=scripts/ci_lib.sh
source "$(dirname "${BASH_SOURCE[0]}")/ci_lib.sh"

BUILD_DIR="${1:-build}"
TSGD="$BUILD_DIR/tools/tsgd"
CLIENT="$BUILD_DIR/tools/tsg_client"
WORKER="$BUILD_DIR/bench/bench_grid_worker"
for bin in "$TSGD" "$CLIENT" "$WORKER"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable (build first)" >&2
    exit 1
  fi
done

WORK_ROOT="${TSG_WORK_ROOT:-/tmp}"
mkdir -p "$WORK_ROOT"
WORK="$(mktemp -d "$WORK_ROOT/tsg_daemon_smoke.XXXXXX")"
DPID=""
cleanup() {
  local rc=$?
  if [[ -n "$DPID" ]] && kill -0 "$DPID" 2>/dev/null; then
    kill -9 "$DPID" 2>/dev/null || true
  fi
  if [[ "$rc" -eq 0 ]]; then
    rm -rf "$WORK"
  else
    echo "FAILED (exit $rc): keeping $WORK for debugging" >&2
  fi
}
trap cleanup EXIT

export TSGBENCH_SCALE=0.1
export TSGBENCH_SEED=7
export TSG_THREADS=1   # Serial cells: the mid-grid kill point is deterministic.

METHODS=TimeVAE
DATASETS=DLG,Stock
# sockaddr_un caps paths around 107 bytes; mktemp under /tmp stays well short.
SOCK="$WORK/tsgd.sock"

ckpt_count() {  # checkpoint files under <out_dir>
  find "$1" -path '*grid_ckpt_*' -name '*.json' 2>/dev/null | wc -l
}

echo "== 1. batch reference grid (one grid worker)"
TSGBENCH_OUT="$WORK/ref" "$WORKER" --methods="$METHODS" --datasets="$DATASETS" \
  >"$WORK/ref_worker.log" 2>&1

DOUT="$WORK/daemon"
echo "== 2. start tsgd; three concurrent sessions fit, then warm generate"
TSGBENCH_OUT="$DOUT" "$TSGD" --socket="$SOCK" >"$WORK/tsgd1.log" 2>&1 &
DPID="$!"
wait_for_listening "$WORK/tsgd1.log" "$DPID"

# Three sessions at once, distinct tenants, on datasets the later grid does not
# cover (so grid cells still train from scratch and the kill lands mid-work).
"$CLIENT" --socket="$SOCK" fit --method=TimeVAE --dataset=Exchange \
  --tenant=alpha --wait >"$WORK/fit1.log" 2>&1 &
FIT1="$!"
"$CLIENT" --socket="$SOCK" fit --method=LS4 --dataset=Exchange \
  --tenant=beta --wait >"$WORK/fit2.log" 2>&1 &
FIT2="$!"
"$CLIENT" --socket="$SOCK" fit --method=LS4 --dataset=Air \
  --tenant=gamma --wait >"$WORK/fit3.log" 2>&1 &
FIT3="$!"
for spec in "$FIT1:fit1" "$FIT2:fit2" "$FIT3:fit3"; do
  pid="${spec%%:*}"
  log="${spec##*:}"
  if ! wait "$pid"; then
    echo "error: concurrent session $log failed:" >&2
    cat "$WORK/$log.log" >&2
    exit 1
  fi
done

digest1=$("$CLIENT" --socket="$SOCK" generate --method=TimeVAE \
  --dataset=Exchange --count=4 --gen_seed=17 --wait | json_field digest)
digest2=$("$CLIENT" --socket="$SOCK" generate --method=TimeVAE \
  --dataset=Exchange --count=4 --gen_seed=17 --wait | json_field digest)
if [[ -z "$digest1" || "$digest1" != "$digest2" ]]; then
  echo "error: generate digests differ across requests: '$digest1' vs '$digest2'" >&2
  exit 1
fi

echo "== 3. SIGKILL the daemon mid-grid (first checkpoint down, second cell live)"
"$CLIENT" --socket="$SOCK" grid --methods="$METHODS" --datasets="$DATASETS" \
  --wait >"$WORK/grid1.log" 2>&1 || true &
GRID1="$!"
for _ in $(seq 1 1800); do
  if [[ "$(ckpt_count "$DOUT")" -ge 1 ]]; then break; fi
  sleep 0.1
done
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true
wait "$GRID1" 2>/dev/null || true
ckpts="$(ckpt_count "$DOUT")"
if [[ "$ckpts" -ne 1 ]]; then
  echo "error: expected exactly 1 checkpoint at the kill point, found $ckpts" >&2
  exit 1
fi

echo "== 4. restart; the resumed grid computes only the missing cell"
TSGBENCH_OUT="$DOUT" "$TSGD" --socket="$SOCK" >"$WORK/tsgd2.log" 2>&1 &
DPID="$!"
wait_for_listening "$WORK/tsgd2.log" "$DPID"
"$CLIENT" --socket="$SOCK" grid --methods="$METHODS" --datasets="$DATASETS" \
  --wait >"$WORK/grid2.log" 2>&1
state=$(json_field state <"$WORK/grid2.log")
computed=$(json_field computed <"$WORK/grid2.log")
failed=$(json_field failed <"$WORK/grid2.log")
if [[ "$state" != "done" || "$computed" -ne 1 || "$failed" -ne 0 ]]; then
  echo "error: resumed grid state=$state computed=$computed failed=$failed," \
    "expected done/1/0 (resume, not recompute):" >&2
  cat "$WORK/grid2.log" >&2
  exit 1
fi
reclaimed=$("$CLIENT" --socket="$SOCK" metrics | python3 -c '
import json, sys
snapshot = json.loads(sys.stdin.readlines()[-1])["metrics"]
print(snapshot["counts"]["counters"].get("grid.cells.reclaimed", 0))
')
if [[ "$reclaimed" -lt 1 ]]; then
  echo "error: grid.cells.reclaimed = $reclaimed, expected >= 1" \
    "(the killed cell's lease was not reclaimed)" >&2
  exit 1
fi

echo "== 5. byte-compare the daemon summary against the batch reference"
cmp "$DOUT"/grid_summary_*.json "$WORK/ref"/grid_summary_*.json

echo "== 6. SIGTERM drains and exits 0"
kill -TERM "$DPID"
rc=0
wait "$DPID" || rc=$?
DPID=""
if [[ "$rc" -ne 0 ]]; then
  echo "error: tsgd exited $rc after SIGTERM; log follows" >&2
  cat "$WORK/tsgd2.log" >&2
  exit 1
fi

echo "daemon smoke OK: concurrent sessions served, SIGKILL resumed" \
  "byte-identically, SIGTERM drained clean"
