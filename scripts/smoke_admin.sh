#!/bin/sh
# Admin-plane smoke test: boot pbtree-server with -admin, drive a short
# mixed load, and assert the operational endpoints answer while the
# data path is busy: /healthz says ok, /metrics carries the per-op,
# per-stage and per-shard families plus one family from each group of
# the registry's counter table, and /statsz returns the STATS JSON with
# the cursors it reads from the same cells.
set -eu

tmp=$(mktemp -d)
port=$((19000 + $$ % 1000))
aport=$((20000 + $$ % 1000))
addr="127.0.0.1:$port"
admin="127.0.0.1:$aport"
keys=100000

cleanup() {
    [ -n "${srv:-}" ] && kill "$srv" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pbtree-server" ./cmd/pbtree-server
go build -o "$tmp/pbtree-loadgen" ./cmd/pbtree-loadgen

"$tmp/pbtree-server" -addr "$addr" -admin "$admin" -keys "$keys" -shards 4 \
    >"$tmp/server.log" 2>&1 &
srv=$!

fetch() {
    # curl when present, else a tiny Go HTTP GET (CI images vary).
    if command -v curl >/dev/null 2>&1; then
        curl -sf "http://$admin$1"
    else
        go run ./scripts/httpget "http://$admin$1"
    fi
}

ok=0
for _ in $(seq 1 50); do
    if fetch /healthz >"$tmp/healthz" 2>/dev/null; then
        ok=1
        break
    fi
    kill -0 "$srv" 2>/dev/null || { echo "smoke-admin: server died:"; cat "$tmp/server.log"; exit 1; }
    sleep 0.2
done
[ "$ok" = 1 ] || { echo "smoke-admin: admin plane never became reachable"; cat "$tmp/server.log"; exit 1; }
grep -q "ok" "$tmp/healthz" || { echo "smoke-admin: /healthz not ok"; cat "$tmp/healthz"; exit 1; }

# Drive load so the metric families have samples, and scrape while the
# data path is busy.
"$tmp/pbtree-loadgen" -addr "$addr" -keys "$keys" -conns 4 -window 4 \
    -duration 2s -skew zipf -put 10 >/dev/null 2>&1 &
load=$!
sleep 1
fetch /metrics >"$tmp/metrics" || { echo "smoke-admin: /metrics failed under load"; exit 1; }
fetch /statsz >"$tmp/statsz" || { echo "smoke-admin: /statsz failed under load"; exit 1; }
wait "$load" || { echo "smoke-admin: loadgen failed"; exit 1; }

for family in pbtree_op_latency_seconds pbtree_stage_latency_seconds \
    pbtree_request_latency_seconds pbtree_shard_queue_depth pbtree_shard_ready \
    pbtree_wal_appends_total pbtree_rejected_total \
    pbtree_scan_cursors_open pbtree_repl_shipped_records_total; do
    grep -q "$family" "$tmp/metrics" \
        || { echo "smoke-admin: /metrics missing $family"; head -40 "$tmp/metrics"; exit 1; }
done
grep -q 'stage="wal_fsync"\|stage="exec"' "$tmp/metrics" \
    || { echo "smoke-admin: no per-stage samples in /metrics"; exit 1; }
grep -q '"server_stages"' "$tmp/statsz" \
    || { echo "smoke-admin: /statsz missing server_stages"; head -20 "$tmp/statsz"; exit 1; }
grep -q '"cursors"' "$tmp/statsz" \
    || { echo "smoke-admin: /statsz missing cursors"; head -20 "$tmp/statsz"; exit 1; }

kill -TERM "$srv"
wait "$srv" || { echo "smoke-admin: server exited nonzero:"; cat "$tmp/server.log"; exit 1; }
srv=
grep -q "drained cleanly" "$tmp/server.log" \
    || { echo "smoke-admin: no clean drain:"; cat "$tmp/server.log"; exit 1; }

echo "smoke-admin: OK (healthz, metrics with stage and table families, statsz, clean drain)"
