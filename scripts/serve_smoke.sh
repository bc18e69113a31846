#!/usr/bin/env bash
# Daemon smoke test: boot quill-serve on ephemeral ports, stream a
# disordered fixture over TCP (with a mid-stream reconnect), scrape
# /metrics, pull the span ring from /trace and render it with both
# quill-inspect modes, assert windows were merged, and shut down cleanly.
# Run from the repository root: ./scripts/serve_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TIMEOUT="${SERVE_SMOKE_TIMEOUT:-120}"
LOG="$(mktemp)"
TRACE="results/SMOKE_serve_trace.jsonl"
trap 'rm -f "$LOG"; [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true' EXIT

echo "==> building quill-serve, quill-ingest and quill-inspect"
cargo build --release -p quill-serve
cargo build --release -p quill-bench --bin quill-inspect

echo "==> booting the daemon (ephemeral ports)"
./target/release/quill-serve \
    --ingest 127.0.0.1:0 --http 127.0.0.1:0 \
    --strategy aq:0.95 \
    --span-capacity 65536 \
    --query 'tumbling:1000;sum:0:total;key=1;completeness=0.9;slo=2000' \
    --query 'tumbling:500;count:0:n;completeness=0.99' \
    >"$LOG" 2>&1 &
SERVER_PID=$!

# Wait for the bound-address lines.
for _ in $(seq 1 100); do
    grep -q '^http=' "$LOG" && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$LOG"; echo "daemon died"; exit 1; }
    sleep 0.1
done
INGEST_ADDR="$(sed -n 's/^ingest=//p' "$LOG" | head -1)"
HTTP_ADDR="$(sed -n 's/^http=//p' "$LOG" | head -1)"
echo "    ingest=$INGEST_ADDR http=$HTTP_ADDR"
[ -n "$INGEST_ADDR" ] && [ -n "$HTTP_ADDR" ]

echo "==> streaming 20k disordered events (reconnect at 10k)"
./target/release/quill-ingest \
    --addr "$INGEST_ADDR" --events 20000 --seed 42 --max-delay 400 \
    --reconnect-at 10000

echo "==> draining via POST /finish"
curl -sf -X POST "http://$HTTP_ADDR/finish" >/dev/null
for _ in $(seq 1 100); do
    curl -sf "http://$HTTP_ADDR/stats" | grep -q '"finished":true' && break
    sleep 0.1
done
curl -sf "http://$HTTP_ADDR/stats" | grep -q '"finished":true'
curl -sf "http://$HTTP_ADDR/stats" | grep -q '"events":20000'

echo "==> scraping /metrics"
METRICS="$(curl -sf "http://$HTTP_ADDR/metrics")"
WINDOWS="$(printf '%s\n' "$METRICS" | awk '$1 == "quill_session_windows" { print $2 }')"
echo "    quill_session_windows=$WINDOWS"
[ -n "$WINDOWS" ] && awk -v m="$WINDOWS" 'BEGIN { exit !(m > 0) }'
printf '%s\n' "$METRICS" | grep -q '^quill_executor_queue_depth '
printf '%s\n' "$METRICS" | grep -q '^quill_span_deliver_count '
printf '%s\n' "$METRICS" | grep -q '^quill_span_deliver_sum '

echo "==> fetching the span ring from /trace"
mkdir -p results
curl -sf "http://$HTTP_ADDR/trace" >"$TRACE"
REPORT="$(./target/release/quill-inspect "$TRACE" --top 3)"
printf '%s\n' "$REPORT" | sed 's/^/    /'
# aq:0.95 moves K: the controller decision log must show at least one move.
printf '%s\n' "$REPORT" | grep -Eq 'K [0-9inf]+ -> [0-9inf]+  \([a-z_]+\)$' || {
    echo "no controller decision in the live trace"
    exit 1
}
./target/release/quill-inspect timeline "$TRACE" | sed 's/^/    /'

echo "==> clean shutdown within ${TIMEOUT}s"
curl -sf -X POST "http://$HTTP_ADDR/shutdown" >/dev/null
for _ in $(seq 1 "$((TIMEOUT * 10))"); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "daemon failed to exit within ${TIMEOUT}s"
    exit 1
fi
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
grep -q '^drained events=' "$LOG"

echo "serve smoke passed."
