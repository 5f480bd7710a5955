# shellcheck shell=bash
# Helpers shared by the CI scripts. Each script sources this file after its own
# `set -euo pipefail`; sourcing only defines functions.

# strip_timings <metrics.json> <out.json>: writes the snapshot without its
# wall-clock "timings" section, keys sorted, so two runs' counts compare with cmp.
strip_timings() {
  python3 - "$1" "$2" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    snapshot = json.load(f)
snapshot.pop("timings", None)
with open(sys.argv[2], "w") as f:
    json.dump(snapshot, f, sort_keys=True, indent=1)
PY
}

# wait_for_listening <log> <pid>: waits up to 30 s for the tsgd process <pid> to
# log "listening on"; fails, printing the log, when it exits or times out first.
wait_for_listening() {
  for _ in $(seq 1 300); do
    if grep -q "listening on" "$1" 2>/dev/null; then return 0; fi
    if ! kill -0 "$2" 2>/dev/null; then break; fi
    sleep 0.1
  done
  echo "error: daemon never reported readiness; log follows" >&2
  cat "$1" >&2
  return 1
}

# json_field <field>: prints member <field> of the last JSON line on stdin;
# fails when the member is absent or null.
json_field() {
  python3 -c '
import json, sys
line = sys.stdin.readlines()[-1]
value = json.loads(line).get(sys.argv[1])
sys.exit(1) if value is None else print(value)
' "$1"
}
