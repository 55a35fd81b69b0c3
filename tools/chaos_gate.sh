#!/usr/bin/env bash
# Chaos gate: drives the shipped twm_cli through a failpoint matrix
# (util/failpoint.h) and asserts every outcome is either a verdict-identical
# completion or a clean typed error — never a crash, hang, torn cache entry,
# or wrong verdict.  CI runs this under ASan/UBSan as the chaos-gate job.
#
# Every invocation runs under timeout(1): a chaos bug that deadlocks must
# fail the gate with rc 124, not stall CI until the job-level timeout.
#
# Usage: tools/chaos_gate.sh [path/to/twm_cli]
# Needs jq (for the serving-port scrape and record filters).
set -euo pipefail

CLI=${1:-./build/twm_cli}
WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2> /dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }
# Hang watchdog.  300 s is generous for the largest workload here even under
# ASan; a hang is the only way to get near it.
run() { timeout -k 10 300 "$@"; }

# 3 cells (saf, tf, ret) x 4 regions: enough stores to trip the cache's
# degrade-after-3-consecutive-disk-failures ladder, small enough to be fast
# under sanitizers.
SPEC=$WORK/spec.json
cat > "$SPEC" << 'EOF'
{
  "name": "chaos-gate",
  "memory": {"words": 16, "width": 4},
  "march": "March C-",
  "schemes": ["twm"],
  "classes": ["saf", "tf", "ret"],
  "seeds": [0, 1],
  "run": {"backend": "scalar", "threads": 1, "regions": 4}
}
EOF
# Deadline workload: single-region, single-thread (the record stream is a
# deterministic sequence, so a timed-out run must be an exact prefix) and
# enough units that a 1 ms deadline always cuts it short.
BIG=$WORK/spec_big.json
cat > "$BIG" << 'EOF'
{
  "name": "chaos-gate-big",
  "memory": {"words": 64, "width": 8},
  "march": "March C-",
  "schemes": ["twm"],
  "classes": ["saf", "tf"],
  "seeds": [0, 1],
  "run": {"backend": "scalar", "threads": 1}
}
EOF
# The same campaign on the packed backend, with the lane-width request older
# specs carry: --failpoints must reach its page allocator too.
PACKED=$WORK/spec_packed.json
jq '.run.backend = "packed" | .run.simd = "auto"' "$SPEC" > "$PACKED"

units() { grep '"type":"unit"' "$1"; }
sorted_units() { units "$1" | sort -u; }

echo "== baseline (fault-free) =="
run "$CLI" run "$SPEC" --sink jsonl --out "$WORK/base.jsonl"
sorted_units "$WORK/base.jsonl" > "$WORK/base.sorted"
[ -s "$WORK/base.sorted" ] || fail "baseline produced no unit records"
echo "   $(wc -l < "$WORK/base.sorted") distinct unit records"

echo "== cache disk writes all failing: warn, degrade, verdicts identical =="
TWM_FAILPOINTS='cache.disk_write=err' run "$CLI" run "$SPEC" --sink jsonl \
  --out "$WORK/dw_err.jsonl" --cache-dir "$WORK/never" 2> "$WORK/dw_err.log" \
  || fail "campaign with failing cache writes did not complete"
grep -q 'warning: result cache disk tier disabled' "$WORK/dw_err.log" \
  || fail "no disk-tier warning"
[ -z "$(ls -A "$WORK/never")" ] || fail "failed cache writes left a file behind"
diff "$WORK/base.sorted" <(sorted_units "$WORK/dw_err.jsonl") \
  || fail "cache-write chaos changed the verdicts"

echo "== torn entries: failing writes never corrupt stored regions =="
run "$CLI" run "$SPEC" --sink jsonl --out /dev/null --cache-dir "$WORK/ck"
[ "$(ls "$WORK/ck" | wc -l)" -eq 15 ] \
  || fail "expected 15 cache entries (3 cells x (4 regions + 1 whole cell))"
# Keep only region 0 of every cell: the state an interrupted run leaves.
for f in "$WORK"/ck/*.json; do
  [ "$(jq '.identity.region // -1' "$f")" -eq 0 ] || rm "$f"
done
cp -r "$WORK/ck" "$WORK/ck_before"
# Resume the "interrupted" run with every write failing: the campaign must
# still finish with the right verdicts, and the atomic tmp-fsync-rename
# write path must leave the stored entries byte-identical, not torn.
TWM_FAILPOINTS='cache.disk_write=err' run "$CLI" run "$SPEC" --sink jsonl \
  --out "$WORK/resumed.jsonl" --cache-dir "$WORK/ck" 2> /dev/null \
  || fail "resumed campaign with failing writes did not complete"
diff "$WORK/base.sorted" <(sorted_units "$WORK/resumed.jsonl") \
  || fail "resume under cache-write chaos changed the verdicts"
diff -r "$WORK/ck_before" "$WORK/ck" || fail "failed cache writes tore the stored entries"

echo "== injected allocation failure: clean typed error, not a crash =="
set +e
OUT=$(run "$CLI" run "$SPEC" --sink jsonl --failpoints 'page.alloc=oom@1' 2>&1)
RC=$?
set -e
[ "$RC" -eq 1 ] || fail "oom injection exited $RC (want a clean 1)"
echo "$OUT" | grep -q 'error: resource:' || fail "oom did not surface as a resource error"

echo "== injected allocation failure, packed \"simd\":\"auto\": same typed error =="
set +e
OUT=$(run "$CLI" run "$PACKED" --sink jsonl --failpoints 'page.alloc=oom@1' 2>&1)
RC=$?
set -e
[ "$RC" -eq 1 ] || fail "packed oom injection exited $RC (want a clean 1)"
echo "$OUT" | grep -q 'error: resource:' || fail "packed oom did not surface as a resource error"

echo "== injected worker death: clean typed error =="
set +e
OUT=$(run "$CLI" run "$SPEC" --sink jsonl --failpoints 'campaign.worker=err@1' 2>&1)
RC=$?
set -e
[ "$RC" -eq 1 ] || fail "worker-death injection exited $RC (want a clean 1)"
echo "$OUT" | grep -q 'error: engine:' || fail "worker death did not surface as an engine error"

echo "== run.deadline_ms: timed-out stream is an exact prefix =="
T0=$(date +%s%3N)
run "$CLI" run "$BIG" --sink jsonl --out "$WORK/big_base.jsonl"
T1=$(date +%s%3N)
# Half the fault-free wall time lands the deadline mid-campaign regardless
# of machine speed or sanitizer overhead (floor 5 ms for clock resolution).
DL=$(( (T1 - T0) / 2 ))
[ "$DL" -ge 5 ] || DL=5
TOTAL=$(units "$WORK/big_base.jsonl" | wc -l)
run "$CLI" run "$BIG" --sink jsonl --out "$WORK/deadline.jsonl" --deadline-ms "$DL"
if tail -n 1 "$WORK/deadline.jsonl" \
  | jq -e '.type == "campaign_end" and .timed_out == true and .cancelled == true' > /dev/null
then
  units "$WORK/deadline.jsonl" > "$WORK/deadline.units" || true
  N=$(wc -l < "$WORK/deadline.units")
  [ "$N" -lt "$TOTAL" ] || fail "$DL ms deadline did not cut the campaign short"
  diff "$WORK/deadline.units" <(units "$WORK/big_base.jsonl" | head -n "$N") \
    || fail "timed-out stream is not a prefix of the fault-free stream"
  echo "   $DL ms deadline cut after $N/$TOTAL units"
else
  # The machine outran its own half-time deadline (only possible at the 5 ms
  # floor): the one acceptable alternative is a complete, identical run.
  diff <(units "$WORK/big_base.jsonl") <(units "$WORK/deadline.jsonl") \
    || fail "deadline run neither timed out nor completed identically"
  echo "   machine outran the $DL ms deadline; full identical run verified"
fi

serve_start() {  # serve_start [extra serve flags...]; sets SERVE_PID and PORT
  : > "$WORK/serve.jsonl"
  "$CLI" serve --port 0 "$@" > "$WORK/serve.jsonl" 2> "$WORK/serve.log" &
  SERVE_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    [ -s "$WORK/serve.jsonl" ] && break
    sleep 0.1
  done
  PORT=$(jq -r 'select(.type=="serving") | .port' "$WORK/serve.jsonl")
  [ -n "$PORT" ] || fail "daemon never reported its port"
}
serve_stop() {
  run "$CLI" submit --port "$PORT" --shutdown > /dev/null 2>&1 || true
  wait "$SERVE_PID" 2> /dev/null || true
  SERVE_PID=""
}

echo "== service: cache disk failures degrade to memory-only, daemon survives =="
serve_start --cache-dir "$WORK/cache" --failpoints 'cache.disk_write=err'
run "$CLI" submit "$SPEC" --port "$PORT" > "$WORK/sub1.jsonl" \
  || fail "submit under disk-write chaos failed"
diff "$WORK/base.sorted" <(sorted_units "$WORK/sub1.jsonl") \
  || fail "disk-write chaos changed the verdicts"
run "$CLI" submit "$SPEC" --port "$PORT" --stats > "$WORK/sub2.jsonl" \
  || fail "daemon did not survive disk-write chaos"
diff "$WORK/base.sorted" <(sorted_units "$WORK/sub2.jsonl") \
  || fail "memory-cache replay under disk chaos changed the verdicts"
jq -e 'select(.type=="stats") | .cache.disk_errors >= 3 and .cache.disk_degraded' \
  "$WORK/sub2.jsonl" > /dev/null \
  || fail "cache did not report disk errors + degradation in stats"
serve_stop
echo "   degraded to memory-only after 3 disk failures, verdicts intact"

echo "== service: retryable engine fault is retried to a green verdict =="
serve_start --failpoints 'page.alloc=oom@1'
run "$CLI" submit "$SPEC" --port "$PORT" --retries 2 --backoff-ms 50 \
  > "$WORK/retry.jsonl" 2> "$WORK/retry.log" \
  || fail "submit --retries did not recover from a one-shot engine fault"
grep -q '"retryable":true' "$WORK/retry.jsonl" \
  || fail "server fault was not echoed as a retryable error frame"
grep -q 'retrying in' "$WORK/retry.log" || fail "client did not announce its retry"
diff "$WORK/base.sorted" <(sorted_units "$WORK/retry.jsonl") \
  || fail "retried submission produced the wrong verdicts"
serve_stop
echo "   client retried once and drained the full verdict stream"

echo "== service: synthetic EINTR storm on both ends is invisible =="
serve_start --failpoints 'socket.send=eintr;socket.recv=eintr;socket.accept=eintr'
run "$CLI" submit "$SPEC" --port "$PORT" \
  --failpoints 'socket.send=eintr;socket.recv=eintr' > "$WORK/eintr.jsonl" \
  || fail "submit under EINTR storm failed"
diff "$WORK/base.sorted" <(sorted_units "$WORK/eintr.jsonl") \
  || fail "EINTR storm changed the verdicts"
serve_stop

echo "chaos gate: all scenarios green"
