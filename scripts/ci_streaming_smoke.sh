#!/usr/bin/env bash
# CI gate for the streaming evaluation subsystem (DESIGN.md §12):
#
#   1. A stream_eval job runs end to end through tsgd: fit-if-missing, chunked
#      generation, windowed online measures. The job self-verifies the
#      streaming-exact contract (VerifyExactAgainstBatch runs inside the job
#      and fails it on any byte divergence), so "exact":true in the result is a
#      machine-checked attestation, and the window/series accounting must match
#      the submitted spec.
#   2. The tenant's live "stream.<tenant>.*" gauges and counters are visible in
#      a METRICS reply — the per-tenant quality/drift surface.
#   3. Determinism: resubmitting the identical spec must reproduce the scores
#      member byte for byte (chunk b regenerates from gen_seed + b).
#   4. Drain: SIGTERM with a long stream_eval in flight must stop at a window
#      boundary and exit 0.
#   5. Worker path = inline path: a daemon restarted with --max_inflight=1 (the
#      job holds the pool's only worker, so the job generates every chunk
#      itself) must answer step 1's spec with step 1's scores, which came from
#      the default daemon, where an idle worker generates the next chunk ahead.
#
# Usage: scripts/ci_streaming_smoke.sh [build_dir]   (default: build)
# The work dir (under TSG_WORK_ROOT, default /tmp) is kept on failure so CI can
# archive daemon logs and metrics snapshots.

set -euo pipefail
# shellcheck source=scripts/ci_lib.sh
source "$(dirname "${BASH_SOURCE[0]}")/ci_lib.sh"

BUILD_DIR="${1:-build}"
TSGD="$BUILD_DIR/tools/tsgd"
CLIENT="$BUILD_DIR/tools/tsg_client"
for bin in "$TSGD" "$CLIENT"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable (build first)" >&2
    exit 1
  fi
done

WORK_ROOT="${TSG_WORK_ROOT:-/tmp}"
mkdir -p "$WORK_ROOT"
WORK="$(mktemp -d "$WORK_ROOT/tsg_stream_smoke.XXXXXX")"
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
export TSG_THREADS=1

SOCK="$WORK/tsgd.sock"
DOUT="$WORK/daemon"

echo "== 1. start tsgd and run one stream_eval job end to end"
TSGBENCH_OUT="$DOUT" "$TSGD" --socket="$SOCK" >"$WORK/tsgd.log" 2>&1 &
DPID="$!"
wait_for_listening "$WORK/tsgd.log" "$DPID"

stream_args=(stream_eval --method=TimeVAE --dataset=DLG --count=48
  --gen_seed=11 --window=16 --chunk=8 --tenant=acme)
"$CLIENT" --socket="$SOCK" "${stream_args[@]}" --wait >"$WORK/stream1.log" 2>&1
state=$(json_field state <"$WORK/stream1.log")
series=$(json_field series <"$WORK/stream1.log")
windows=$(json_field windows <"$WORK/stream1.log")
exact=$(json_field exact <"$WORK/stream1.log")
drained=$(json_field drained <"$WORK/stream1.log")
if [[ "$state" != "done" || "$series" -ne 48 || "$windows" -ne 3 ||
      "$exact" != "True" || "$drained" != "False" ]]; then
  echo "error: stream_eval state=$state series=$series windows=$windows" \
    "exact=$exact drained=$drained, expected done/48/3/True/False:" >&2
  cat "$WORK/stream1.log" >&2
  exit 1
fi

echo "== 2. the tenant's live stream.* gauges are visible via METRICS"
"$CLIENT" --socket="$SOCK" metrics >"$WORK/metrics.log"
python3 - "$WORK/metrics.log" <<'EOF'
import json, sys
snapshot = json.loads(open(sys.argv[1]).readlines()[-1])["metrics"]
gauges = snapshot["timings"]["gauges"]
counters = snapshot["counts"]["counters"]
missing = [g for g in ("stream.acme.ED", "stream.acme.DTW", "stream.acme.MDD",
                       "stream.acme.ACD", "stream.acme.SD", "stream.acme.KD",
                       "stream.acme.MMD", "stream.acme.ED.delta")
           if g not in gauges]
if missing:
    sys.exit(f"missing stream gauges in METRICS: {missing}")
if counters.get("stream.acme.windows") != 3:
    sys.exit(f"stream.acme.windows = {counters.get('stream.acme.windows')}, expected 3")
if counters.get("stream.acme.series") != 48:
    sys.exit(f"stream.acme.series = {counters.get('stream.acme.series')}, expected 48")
print("stream.* gauges and counters present")
EOF

echo "== 3. identical spec reproduces the scores byte for byte"
"$CLIENT" --socket="$SOCK" "${stream_args[@]}" --wait >"$WORK/stream2.log" 2>&1
scores1=$(json_field scores <"$WORK/stream1.log")
scores2=$(json_field scores <"$WORK/stream2.log")
if [[ -z "$scores1" || "$scores1" != "$scores2" ]]; then
  echo "error: stream_eval scores differ across identical submissions:" >&2
  echo "  run 1: $scores1" >&2
  echo "  run 2: $scores2" >&2
  exit 1
fi

echo "== 4. SIGTERM with a stream in flight drains at a window boundary"
"$CLIENT" --socket="$SOCK" stream_eval --method=TimeVAE --dataset=DLG \
  --count=100000 --gen_seed=3 --window=16 --chunk=8 --tenant=acme \
  >"$WORK/stream3.log" 2>&1
sleep 0.5   # Let the job leave the queue and start streaming.
kill -TERM "$DPID"
rc=0
wait "$DPID" || rc=$?
DPID=""
if [[ "$rc" -ne 0 ]]; then
  echo "error: tsgd exited $rc after SIGTERM mid-stream; log follows" >&2
  cat "$WORK/tsgd.log" >&2
  exit 1
fi

echo "== 5. a one-worker daemon (every chunk generated inline) gives step 1's scores"
TSGBENCH_OUT="$DOUT" "$TSGD" --socket="$SOCK" --max_inflight=1 \
  >"$WORK/tsgd_inline.log" 2>&1 &
DPID="$!"
wait_for_listening "$WORK/tsgd_inline.log" "$DPID"
"$CLIENT" --socket="$SOCK" "${stream_args[@]}" --wait >"$WORK/stream4.log" 2>&1
scores4=$(json_field scores <"$WORK/stream4.log")
if ! cmp <(echo "$scores1") <(echo "$scores4"); then
  echo "error: inline-generated scores differ from the default daemon's:" >&2
  echo "  default: $scores1" >&2
  echo "  inline:  $scores4" >&2
  exit 1
fi
kill -TERM "$DPID"
rc=0
wait "$DPID" || rc=$?
DPID=""
if [[ "$rc" -ne 0 ]]; then
  echo "error: one-worker tsgd exited $rc after SIGTERM; log follows" >&2
  cat "$WORK/tsgd_inline.log" >&2
  exit 1
fi

echo "streaming smoke OK: exact windows served, live per-tenant gauges" \
  "exposed, deterministic rerun, drain clean, inline = worker-generated"
