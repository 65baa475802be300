#!/usr/bin/env bash
# Crash smoke test: kill -9 the serving daemon mid-stream and prove the
# write-ahead delta log brings back every acknowledged update.
#
#   1. serve --log, POST /update batches, SIGKILL the daemon;
#   2. `index recover` must report a clean (or torn-tail-repaired) log and
#      land on exactly the state an offline replica of the same update
#      sequence reaches;
#   3. a deliberately torn log tail must exit 3 (repaired), and a stale
#      pre-compaction log resurrected next to a compacted snapshot must
#      exit 4 (quarantined to <log>.stale, snapshot fallback);
#   4. the restarted `serve --log` answers /search identically to the
#      replica, keeps journaling new updates, and shuts down cleanly.
#
# Exit-code contract under test (docs/RELIABILITY.md):
#   0 clean, 3 repaired, 4 quarantined, 1 fatal.
#
# Run from the repo root: bash scripts/crash_smoke.sh
set -euo pipefail

cargo build --release --bin ctc-cli
BIN=target/release/ctc-cli

TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

"$BIN" generate mini-facebook "$TMP/fb.txt"
"$BIN" index build "$TMP/fb.txt" -o "$TMP/fb.ctci"
# The offline replica: same snapshot, same update sequence, no crash.
cp "$TMP/fb.ctci" "$TMP/replica.ctci"

start_server() {
    "$BIN" serve "$TMP/fb.ctci" --addr 127.0.0.1:0 --threads 2 --log "$TMP/fb.ctcd" \
        > "$TMP/serve.log" 2>&1 &
    SERVER_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$TMP/serve.log" | head -1)
        [ -n "$ADDR" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null \
            || { echo "FAIL: server died:"; cat "$TMP/serve.log"; exit 1; }
        sleep 0.1
    done
    [ -n "$ADDR" ] || { echo "FAIL: no listening line:"; cat "$TMP/serve.log"; exit 1; }
    HOST=${ADDR%:*}
    PORT=${ADDR##*:}
}

# One request over /dev/tcp. Connection: close makes EOF the framing.
request() {
    local method=$1 target=$2 body=$3
    exec 3<>"/dev/tcp/$HOST/$PORT"
    printf '%s %s HTTP/1.1\r\nHost: crash-smoke\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
        "$method" "$target" "${#body}" "$body" >&3
    cat <&3
    exec 3<&- 3>&-
}

expect_200() {
    printf '%s\n' "$1" | head -1 | grep -q '^HTTP/1.1 200 OK' \
        || { echo "FAIL: non-200 ($2):"; printf '%s\n' "$1" | head -5; exit 1; }
}

# --- Phase 1: serve, acknowledge updates, SIGKILL -------------------------
start_server
echo "crash-smoke: server on $ADDR"

R=$(request POST /update '{"updates":[{"op":"insert","u":0,"v":399},{"op":"insert","u":1,"v":398}]}')
expect_200 "$R" "update batch 1"
R=$(request POST /update '{"updates":[{"op":"insert","u":2,"v":397},{"op":"delete","u":0,"v":399}]}')
expect_200 "$R" "update batch 2"

# Every one of those 200s implied a synced append: SIGKILL now and the
# log must still carry them.
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "crash-smoke: daemon killed with SIGKILL after 2 acknowledged batches"

# The replica applies the identical sequence (same accept/reject
# semantics), so its snapshot is the ground truth for recovery.
"$BIN" index update "$TMP/replica.ctci" --insert 0,399 --insert 1,398 > /dev/null
"$BIN" index update "$TMP/replica.ctci" --insert 2,397 --delete 0,399 > /dev/null
EXPECTED_EDGES=$("$BIN" index info "$TMP/replica.ctci" \
    | sed -n 's/^edges[[:space:]]*\([0-9][0-9]*\).*/\1/p')
[ -n "$EXPECTED_EDGES" ] || { echo "FAIL: could not read replica edge count"; exit 1; }
DIRECT=$("$BIN" search --index "$TMP/replica.ctci" --query 0,1 --algo lctc)
EXPECTED_K=$(printf '%s\n' "$DIRECT" | sed -n 's/^community: k = \([0-9]*\),.*/\1/p')
[ -n "$EXPECTED_K" ] || { echo "FAIL: could not extract k from: $DIRECT"; exit 1; }

# --- Phase 2: recovery exit codes ----------------------------------------
# After SIGKILL every synced byte survives: clean (0) or, at worst, a
# torn tail from an append the daemon never acknowledged (3).
set +e
REC=$("$BIN" index recover "$TMP/fb.ctci" --log "$TMP/fb.ctcd")
RC=$?
set -e
[ "$RC" -eq 0 ] || [ "$RC" -eq 3 ] \
    || { echo "FAIL: post-kill recover exited $RC:"; printf '%s\n' "$REC"; exit 1; }
REC_EDGES=$(printf '%s\n' "$REC" | sed -n 's/^recovered: [0-9]* vertices, \([0-9]*\) edges.*/\1/p')
[ "$REC_EDGES" = "$EXPECTED_EDGES" ] \
    || { echo "FAIL: recovered $REC_EDGES edges, replica has $EXPECTED_EDGES:"; printf '%s\n' "$REC"; exit 1; }
echo "crash-smoke: post-kill recover exit $RC, $REC_EDGES edges == replica"

# A torn tail (partial final append) must repair: exit 3.
cp "$TMP/fb.ctcd" "$TMP/torn.ctcd"
truncate -s -10 "$TMP/torn.ctcd"
set +e
REC=$("$BIN" index recover "$TMP/fb.ctci" --log "$TMP/torn.ctcd")
RC=$?
set -e
[ "$RC" -eq 3 ] || { echo "FAIL: torn-tail recover exited $RC (want 3):"; printf '%s\n' "$REC"; exit 1; }
printf '%s\n' "$REC" | grep -q 'torn tail' \
    || { echo "FAIL: no torn-tail report:"; printf '%s\n' "$REC"; exit 1; }
echo "crash-smoke: torn tail repaired (exit 3)"

# The mid-compaction crash window: a compacted snapshot next to the old
# pre-compaction log. The stale log must be quarantined, not replayed:
# exit 4, serving from the snapshot.
cp "$TMP/fb.ctci" "$TMP/stale.ctci"
cp "$TMP/fb.ctcd" "$TMP/stale.ctcd"
"$BIN" index update "$TMP/stale.ctci" --log "$TMP/stale.ctcd" --compact > /dev/null
cp "$TMP/fb.ctcd" "$TMP/stale.ctcd"
set +e
REC=$("$BIN" index recover "$TMP/stale.ctci" --log "$TMP/stale.ctcd")
RC=$?
set -e
[ "$RC" -eq 4 ] || { echo "FAIL: stale-log recover exited $RC (want 4):"; printf '%s\n' "$REC"; exit 1; }
[ -f "$TMP/stale.ctcd.stale" ] \
    || { echo "FAIL: stale log was not archived to stale.ctcd.stale"; exit 1; }
echo "crash-smoke: stale pre-compaction log quarantined (exit 4)"

# --- Phase 3: restart and differential -----------------------------------
start_server
echo "crash-smoke: restarted on $ADDR, expecting k = $EXPECTED_K"

RESPONSE=$(request POST /search '{"query":[0,1],"algo":"lctc"}')
expect_200 "$RESPONSE" "post-recovery search"
printf '%s' "$RESPONSE" | grep -q "{\"k\":$EXPECTED_K," \
    || { echo "FAIL: served k does not match replica k=$EXPECTED_K:"; printf '%s\n' "$RESPONSE" | tail -1; exit 1; }

STATS=$(request GET /stats '')
printf '%s' "$STATS" | grep -q "\"num_edges\":$EXPECTED_EDGES" \
    || { echo "FAIL: served edge count != replica $EXPECTED_EDGES:"; printf '%s\n' "$STATS" | tail -1; exit 1; }

HEALTH=$(request GET /healthz '')
printf '%s' "$HEALTH" | grep -q '{"status":"ok"}' \
    || { echo "FAIL: bad healthz after recovery:"; printf '%s\n' "$HEALTH"; exit 1; }

# The restarted daemon must keep journaling: one more acknowledged
# update, graceful shutdown, and a final clean recover that lands on the
# replica's state again.
R=$(request POST /update '{"updates":[{"op":"insert","u":3,"v":396}]}')
expect_200 "$R" "post-recovery update"
"$BIN" index update "$TMP/replica.ctci" --insert 3,396 > /dev/null
EXPECTED_EDGES=$("$BIN" index info "$TMP/replica.ctci" \
    | sed -n 's/^edges[[:space:]]*\([0-9][0-9]*\).*/\1/p')

request POST /shutdown '' > /dev/null
for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server still alive after /shutdown"; exit 1
fi
wait "$SERVER_PID" || { echo "FAIL: server exited non-zero"; cat "$TMP/serve.log"; exit 1; }
SERVER_PID=""
grep -q 'drained' "$TMP/serve.log" || { echo "FAIL: no drain report:"; cat "$TMP/serve.log"; exit 1; }

set +e
REC=$("$BIN" index recover "$TMP/fb.ctci" --log "$TMP/fb.ctcd")
RC=$?
set -e
[ "$RC" -eq 0 ] || { echo "FAIL: final recover exited $RC (want 0):"; printf '%s\n' "$REC"; exit 1; }
REC_EDGES=$(printf '%s\n' "$REC" | sed -n 's/^recovered: [0-9]* vertices, \([0-9]*\) edges.*/\1/p')
[ "$REC_EDGES" = "$EXPECTED_EDGES" ] \
    || { echo "FAIL: final state $REC_EDGES edges, replica has $EXPECTED_EDGES"; exit 1; }

echo "crash-smoke: OK (kill -9 recovered, torn tail exit 3, stale log exit 4, differential matched)"
