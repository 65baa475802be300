#!/usr/bin/env bash
# End-to-end smoke test of the serving path, std-only on the client side
# too (bash /dev/tcp): build release, index the mini facebook preset,
# start `ctc-cli serve` on an ephemeral port, send three /search
# requests (LCTC, fixed-k Basic, the Truss baseline) and assert 200 plus
# the same k and the same member list a direct `ctc-cli search --index`
# reports, repeat the first for a cache hit, send one malformed body
# (400), check the counters and the scratch pool in /stats, then shut
# down gracefully via POST /shutdown, require exit code 0 and the same
# counters in the daemon's drain line.
#
# Run from the repo root: bash scripts/smoke_serve.sh
set -euo pipefail

cargo build --release --bin ctc-cli
BIN=target/release/ctc-cli

TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

"$BIN" generate mini-facebook "$TMP/fb.txt"
"$BIN" index build "$TMP/fb.txt" -o "$TMP/fb.ctci"

"$BIN" serve "$TMP/fb.ctci" --addr 127.0.0.1:0 --threads 2 --cache-cap 64 \
    > "$TMP/serve.log" 2>&1 &
SERVER_PID=$!

# Wait for the daemon to print its bound address.
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$TMP/serve.log" | head -1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: server died:"; cat "$TMP/serve.log"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: no listening line:"; cat "$TMP/serve.log"; exit 1; }
HOST=${ADDR%:*}
PORT=${ADDR##*:}
echo "smoke: server on $ADDR"

# One request over /dev/tcp. Connection: close makes EOF the framing.
request() {
    local method=$1 target=$2 body=$3
    exec 3<>"/dev/tcp/$HOST/$PORT"
    printf '%s %s HTTP/1.1\r\nHost: smoke\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
        "$method" "$target" "${#body}" "$body" >&3
    cat <&3
    exec 3<&- 3>&-
}

# One /search with `body` against the direct answer for the CLI flags
# that follow (no server involved): 200, the same k and the same members.
# Both list the community's vertices as labels in dense order.
check_search() {
    local body=$1 direct k members response served
    shift
    direct=$("$BIN" search --index "$TMP/fb.ctci" --query 0,1 "$@")
    k=$(printf '%s\n' "$direct" | sed -n 's/^community: k = \([0-9]*\),.*/\1/p')
    members=$(printf '%s\n' "$direct" | sed -n 's/^members: //p')
    [ -n "$k" ] && [ -n "$members" ] || { echo "FAIL: could not parse: $direct"; exit 1; }
    response=$(request POST /search "$body")
    printf '%s\n' "$response" | head -1 | grep -q '^HTTP/1.1 200 OK' \
        || { echo "FAIL: $body: non-200 response:"; printf '%s\n' "$response" | head -5; exit 1; }
    printf '%s' "$response" | grep -q "{\"k\":$k," \
        || { echo "FAIL: $body: served k does not match direct k=$k:"; printf '%s\n' "$response" | tail -1; exit 1; }
    served=$(printf '%s' "$response" | sed -n 's/.*"vertices":\[\([0-9,]*\)\].*/\1/p' | tr ',' ' ')
    [ "$served" = "$members" ] \
        || { echo "FAIL: $body: served members [$served] differ from direct [$members]"; exit 1; }
    echo "smoke: $body: k = $k, $(printf '%s' "$members" | wc -w) members match"
}

check_search '{"query":[0,1],"algo":"lctc"}' --algo lctc
check_search '{"query":[0,1],"k":3,"algo":"basic"}' --k 3 --algo basic
check_search '{"query":[0,1],"algo":"truss"}' --algo truss

AGAIN=$(request POST /search '{"query":[0,1],"algo":"lctc"}')
printf '%s' "$AGAIN" | grep -qi '^x-cache: hit' \
    || { echo "FAIL: repeated search not a cache hit:"; printf '%s\n' "$AGAIN" | head -5; exit 1; }
BAD=$(request POST /search '{"query":')
printf '%s\n' "$BAD" | head -1 | grep -q '^HTTP/1.1 400' \
    || { echo "FAIL: malformed body not a 400:"; printf '%s\n' "$BAD" | head -5; exit 1; }

HEALTH=$(request GET /healthz '')
printf '%s' "$HEALTH" | grep -q '{"status":"ok"}' \
    || { echo "FAIL: bad healthz:"; printf '%s\n' "$HEALTH"; exit 1; }

# The books: three misses, one hit, one failed search, no panics.
STATS=$(request GET /stats '')
for want in '"search_ok":4,' '"search_err":1,' '"hits":1,' '"misses":3}' '"panics":0,'; do
    printf '%s' "$STATS" | grep -qF "$want" \
        || { echo "FAIL: /stats lacks $want:"; printf '%s\n' "$STATS" | tail -1; exit 1; }
done
# The three misses ran searches, so the process-wide scratch pool holds
# at least one idle scratch with buffers in it.
SCRATCH=$(printf '%s' "$STATS" | sed -n 's/.*"scratch":{"idle":\([0-9]*\),"resident_bytes":\([0-9]*\)}.*/\1 \2/p')
read -r IDLE RESIDENT <<< "${SCRATCH:-0 0}"
[ "$IDLE" -ge 1 ] && [ "$RESIDENT" -gt 0 ] \
    || { echo "FAIL: /stats server.scratch missing or empty:"; printf '%s\n' "$STATS" | tail -1; exit 1; }
echo "smoke: scratch pool: $IDLE idle, $RESIDENT resident bytes"

# Graceful shutdown: the daemon must drain and exit 0 on its own.
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
grep -qF '(4 search ok, 1 search err, 1 cache hits, 0 rejects)' "$TMP/serve.log" \
    || { echo "FAIL: drain report does not match the requests sent:"; cat "$TMP/serve.log"; exit 1; }

echo "smoke: OK (three communities matched, counters reconciled, graceful shutdown confirmed)"
