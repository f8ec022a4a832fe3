#!/usr/bin/env bash
# gateway_smoke.sh <path-to-dharma_gateway>
#
# Boots the gateway daemon on an ephemeral port, drives the REST surface
# with curl, and asserts the response shapes: insert -> tag -> search ->
# resolve round trip, the typed JSON error taxonomy, the /stats JSON, and
# the /metrics Prometheus exposition. Exits nonzero on the first mismatch.
# This is the CI smoke; the load-bearing coverage lives in
# tests/test_gateway.cpp and tests/cluster/test_gateway_protocol.cpp.
set -euo pipefail

GATEWAY_BIN=${1:?usage: gateway_smoke.sh <path-to-dharma_gateway>}
LOG=$(mktemp)
FIFO=$(mktemp -u)
mkfifo "$FIFO"

cleanup() {
  exec 3>&- 2>/dev/null || true
  [ -n "${GW_PID:-}" ] && kill "$GW_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -f "$FIFO" "$LOG"
}
trap cleanup EXIT

# Hold the daemon's stdin open on a fifo so it keeps serving until we say
# quit; port 0 lets the kernel pick, the banner tells us what it picked.
# Two nodes on two shards, so the boot runs a cross-shard join and starts
# a maintenance manager on each shard.
"$GATEWAY_BIN" --bind 127.0.0.1:0 --nodes 2 --shards 2 <"$FIFO" >"$LOG" &
GW_PID=$!
exec 3>"$FIFO"

PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's#^gateway listening on http://127.0.0.1:##p' "$LOG" | head -1)
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "FAIL: no listening banner"; cat "$LOG"; exit 1; }
BASE="http://127.0.0.1:$PORT"
echo "gateway up on $BASE"

expect() { # expect <label> <needle> <haystack>
  case "$3" in
    *"$2"*) echo "ok: $1" ;;
    *) echo "FAIL: $1 — expected '$2' in: $3"; exit 1 ;;
  esac
}

R=$(curl -sS -X PUT "$BASE/resources/song1?tag=rock&tag=indie" -d 'http://u/song1')
expect "PUT /resources" '"resource":"song1"' "$R"

R=$(curl -sS -X POST "$BASE/resources/song1/tags" -d 'jazz')
expect "POST /tags" '"resource":"song1"' "$R"

R=$(curl -sS "$BASE/search?tag=rock&steps=2")
expect "GET /search" '"tag":"rock"' "$R"
expect "search finds resource" 'song1' "$R"

R=$(curl -sS "$BASE/resolve/song1")
expect "GET /resolve" 'http://u/song1' "$R"

R=$(curl -sS "$BASE/resolve/ghost")
expect "typed 404" '"error":"not-found"' "$R"

R=$(curl -sS "$BASE/stats")
expect "GET /stats" '"gateway":{' "$R"
expect "/stats carries registry metrics" '"metrics":{' "$R"

R=$(curl -sS "$BASE/debug/traces")
expect "GET /debug/traces" '"total_completed":' "$R"
expect "traces carry client-op spans" '"kind":"client-op"' "$R"

SCRAPE=$(mktemp)
curl -sS "$BASE/metrics" > "$SCRAPE"
R=$(cat "$SCRAPE")
expect "metrics exposition" '# TYPE dharma_gateway_requests_total counter' "$R"
expect "client op histograms exported"   '# TYPE dharma_client_op_latency_us histogram' "$R"
expect "node rpc service histograms exported"   '# TYPE dharma_node_rpc_service_us histogram' "$R"
expect "per-route latency histograms exported"   '# TYPE dharma_gateway_route_latency_us histogram' "$R"

# Structural lint over the full exposition: HELP/TYPE presence, duplicate
# families, cumulative buckets, _count == +Inf.
python3 "$(dirname "$0")/metrics_lint.py" "$SCRAPE"
rm -f "$SCRAPE"

echo quit >&3
wait "$GW_PID"
echo "gateway smoke PASS"
