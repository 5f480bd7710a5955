#!/usr/bin/env bash
# CI test for the trained-model artifact store (train-once / serve-many):
#
#   1. Cold run: a tiny 2x2 grid against an empty store must train every cell
#      (harness.fit_calls=4) and publish 4 artifacts.
#   2. Warm run: a second run (fresh TSGBENCH_OUT, same store) must train
#      NOTHING — zero harness.fit_calls, 4 store hits, 4 restores.
#   3. The warm grid summary must be byte-identical to the cold one, and the
#      timing-stripped metric snapshots must agree on every grid counter.
#
# Usage: scripts/ci_store_cache.sh [build_dir]   (default: build)
# The work dir (under TSG_WORK_ROOT, default /tmp) is kept on failure so CI can
# archive the store, checkpoints, and metrics snapshots for debugging.

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
WORK="$(mktemp -d "$WORK_ROOT/tsg_store_cache.XXXXXX")"
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
export TSGBENCH_STORE_DIR="$WORK/store"
export TSG_THREADS=1

counter() {  # counter <metrics.json> <name> -> value (0 when absent)
  python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snapshot = json.load(f)
print(snapshot["counts"]["counters"].get(sys.argv[2], 0))
EOF
}

expect_counter() {  # expect_counter <metrics.json> <name> <expected>
  local got
  got="$(counter "$1" "$2")"
  if [[ "$got" -ne "$3" ]]; then
    echo "error: $2=$got in $1, expected $3" >&2
    exit 1
  fi
}

echo "== 1. cold run (empty store: every cell trains and publishes)"
TSGBENCH_OUT="$WORK/cold" "$BIN" --metrics_out="$WORK/cold/metrics.json"
expect_counter "$WORK/cold/metrics.json" "harness.fit_calls" 4
expect_counter "$WORK/cold/metrics.json" "store.misses" 4
expect_counter "$WORK/cold/metrics.json" "harness.store.restored" 0
artifacts=$(find "$TSGBENCH_STORE_DIR" -name '*.tsgmodel' | wc -l)
if [[ "$artifacts" -ne 4 ]]; then
  echo "error: expected 4 published artifacts, found $artifacts" >&2
  exit 1
fi

echo "== 2. warm run (same store, fresh out dir: zero training)"
TSGBENCH_OUT="$WORK/warm" "$BIN" --metrics_out="$WORK/warm/metrics.json"
expect_counter "$WORK/warm/metrics.json" "harness.fit_calls" 0
expect_counter "$WORK/warm/metrics.json" "store.hits" 4
expect_counter "$WORK/warm/metrics.json" "harness.store.restored" 4
expect_counter "$WORK/warm/metrics.json" "store.corrupt" 0

echo "== 3. warm summary must be byte-identical to the cold one"
cmp "$WORK/cold"/grid_summary_*.json "$WORK/warm"/grid_summary_*.json

echo "== 4. grid counters agree once timings are stripped"
strip_timings "$WORK/cold/metrics.json" "$WORK/cold/counts.json"
strip_timings "$WORK/warm/metrics.json" "$WORK/warm/counts.json"
python3 - "$WORK/cold/counts.json" "$WORK/warm/counts.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    cold = json.load(f)["counts"]["counters"]
with open(sys.argv[2]) as f:
    warm = json.load(f)["counts"]["counters"]
# Everything grid-level must match; only fit/store counters may differ between
# a trained and a cache-served run.
for key in sorted(set(cold) | set(warm)):
    if key.startswith(("grid.", "measure.", "harness.cells", "harness.errors")):
        if cold.get(key, 0) != warm.get(key, 0):
            print(f"counter mismatch: {key}: cold={cold.get(key, 0)} "
                  f"warm={warm.get(key, 0)}", file=sys.stderr)
            sys.exit(1)
EOF

echo "store cache OK: warm run trained nothing and scored byte-identically"
