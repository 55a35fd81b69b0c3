#!/usr/bin/env bash
# Demonstrates (and, in CI, gates) the campaign daemon's result cache:
#
#   1. boot `twm_cli serve` on an ephemeral port with a disk cache,
#   2. submit examples/specs/service_demo.json — every cell simulates live,
#   3. submit it AGAIN — the campaign_stats frame must report simulated:0
#      and the replayed unit records must be byte-identical to the first
#      run's,
#   4. extend the spec by one fault class and submit — only the new cells
#      may simulate,
#   5. shut the daemon down over the protocol.
#
# Usage: examples/specs/submit_demo.sh [path/to/twm_cli]
# Needs jq (for the delta-spec edit and the stats assertions).
set -euo pipefail

CLI=${1:-./build/twm_cli}
SPEC_DIR=$(cd "$(dirname "$0")" && pwd)
SPEC="$SPEC_DIR/service_demo.json"
WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2> /dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$CLI" serve --port 0 --cache-dir "$WORK/cache" > "$WORK/serve.jsonl" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$WORK/serve.jsonl" ] && break
  sleep 0.1
done
PORT=$(jq -r 'select(.type=="serving") | .port' "$WORK/serve.jsonl")
[ -n "$PORT" ] || { echo "daemon never reported its port" >&2; exit 1; }
echo "daemon on 127.0.0.1:$PORT (cache: $WORK/cache)"

"$CLI" submit "$SPEC" --port "$PORT" > "$WORK/first.jsonl"
"$CLI" submit "$SPEC" --port "$PORT" > "$WORK/second.jsonl"

echo "first:  $(grep '"type":"campaign_stats"' "$WORK/first.jsonl")"
echo "second: $(grep '"type":"campaign_stats"' "$WORK/second.jsonl")"

# The second submission re-simulated NOTHING: every cell replayed.
jq -e 'select(.type=="campaign_stats")
       | .simulated == 0 and .cached == .cells and .faults_replayed > 0' \
  "$WORK/second.jsonl" > /dev/null \
  || { echo "FAIL: resubmission did not replay from the cache" >&2; exit 1; }

# ...and byte-identically: the replayed unit records are the original ones.
diff <(grep '"type":"unit"' "$WORK/first.jsonl") \
     <(grep '"type":"unit"' "$WORK/second.jsonl") \
  || { echo "FAIL: replayed unit records differ from the original run" >&2; exit 1; }
echo "OK: resubmission replayed $(grep -c '"type":"unit"' "$WORK/second.jsonl") unit records byte-identically"

# A spec extended by one fault class simulates ONLY the new cells.
jq '.classes += ["ret"] | .name += "-delta"' "$SPEC" > "$WORK/delta.json"
"$CLI" submit "$WORK/delta.json" --port "$PORT" > "$WORK/delta.jsonl"
echo "delta:  $(grep '"type":"campaign_stats"' "$WORK/delta.jsonl")"
jq -e 'select(.type=="campaign_stats")
       | .simulated == 1 and .cached == (.cells - 1)' \
  "$WORK/delta.jsonl" > /dev/null \
  || { echo "FAIL: delta spec did not simulate exactly its new cell" >&2; exit 1; }
echo "OK: delta spec simulated only the added fault class"

"$CLI" submit --port "$PORT" --shutdown > /dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "daemon shut down cleanly"

# Region-grain resume smoke: with --cache-dir, a region-sharded run stores
# every settled region and every completed cell as cache entries.  Deleting
# the whole-cell entries and regions >= 2 simulates an interrupted run; the
# resumed run must replay the kept regions, simulate only the deleted ones,
# and produce the same record set.
entries() {  # "<region entries> <whole-cell entries>" in cache dir $1
  jq -r '.identity.region // "cell"' "$1"/*.json \
    | awk '{ n[$1 == "cell"]++ } END { print n[0] + 0, n[1] + 0 }'
}
"$CLI" run "$SPEC_DIR/quickstart.json" --regions 4 --sink csv \
  --out "$WORK/full.csv" --cache-dir "$WORK/resume"
echo "cache holds $(entries "$WORK/resume") (region, whole-cell) entries"
[ "$(entries "$WORK/resume")" = "16 4" ] \
  || { echo "FAIL: expected 16 region entries (4 cells x 4 regions) + 4 cells" >&2; exit 1; }

for f in "$WORK"/resume/*.json; do
  [ "$(jq '.identity.region // 99' "$f")" -lt 2 ] || rm "$f"
done
"$CLI" run "$SPEC_DIR/quickstart.json" --regions 4 --sink csv \
  --out "$WORK/resumed.csv" --cache-dir "$WORK/resume"

# Same unit records (order differs: replayed regions stream first).
diff <(sort "$WORK/full.csv") <(sort "$WORK/resumed.csv") \
  || { echo "FAIL: resumed run's records differ from the uninterrupted run" >&2; exit 1; }
# The resumed run re-settles the dropped regions: the cache is whole again.
[ "$(entries "$WORK/resume")" = "16 4" ] \
  || { echo "FAIL: resume did not re-complete the dropped regions" >&2; exit 1; }
echo "OK: region resume replayed 2 regions, re-simulated 2, records identical"
