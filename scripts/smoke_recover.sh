#!/bin/sh
# Recovery smoke test: boot a durable pbtree-server (-data-dir, -fsync
# always), drive put-heavy load, kill -9 mid-load, restart on the same
# directory, and assert that (a) the server reports WAL replay, (b) the
# whole preloaded key space is served afterwards (not_found == 0 under
# a GET-only sweep), and (c) the restarted server still drains cleanly.
#
# BACKEND selects the storage engine under test (pbtree or lsm,
# default pbtree); the whole protocol is engine-agnostic.
set -eu

backend="${BACKEND:-pbtree}"
tmp=$(mktemp -d)
port=$((18000 + $$ % 1000))
addr="127.0.0.1:$port"
keys=20000
shards=4
data="$tmp/data"

cleanup() {
    [ -n "${srv:-}" ] && kill -9 "$srv" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pbtree-server" ./cmd/pbtree-server
go build -o "$tmp/pbtree-loadgen" ./cmd/pbtree-loadgen

start_server() {
    "$tmp/pbtree-server" -addr "$addr" -keys "$keys" -shards "$shards" \
        -backend "$backend" -data-dir "$data" -fsync always >"$1" 2>&1 &
    srv=$!
    ok=0
    for _ in $(seq 1 50); do
        if "$tmp/pbtree-loadgen" -addr "$addr" -keys "$keys" -conns 1 \
            -duration 100ms >/dev/null 2>&1; then
            ok=1
            break
        fi
        kill -0 "$srv" 2>/dev/null || { echo "smoke-recover: server died:"; cat "$1"; exit 1; }
        sleep 0.2
    done
    [ "$ok" = 1 ] || { echo "smoke-recover: server never became reachable"; cat "$1"; exit 1; }
}

# Boot 1: fresh directory, put-heavy load, then a hard kill mid-load.
start_server "$tmp/server1.log"
[ "$(grep -c "shard bootstrapped" "$tmp/server1.log")" = "$shards" ] \
    || { echo "smoke-recover: fresh directory not bootstrapped:"; cat "$tmp/server1.log"; exit 1; }
"$tmp/pbtree-loadgen" -addr "$addr" -keys "$keys" -conns 4 \
    -duration 5s -put 90 -del 0 >/dev/null 2>&1 &
load=$!
sleep 1
kill -9 "$srv"
srv=
wait "$load" 2>/dev/null || true  # loadgen dies with the connection; expected

# Boot 2: same directory, same -keys seed. Every shard must recover
# it; none may bootstrap again (the seed only fills fresh shards).
start_server "$tmp/server2.log"
[ "$(grep -c "shard recovered" "$tmp/server2.log")" = "$shards" ] \
    || { echo "smoke-recover: not every shard recovered after kill -9:"; cat "$tmp/server2.log"; exit 1; }
if grep -q "bootstrapped" "$tmp/server2.log"; then
    echo "smoke-recover: a shard bootstrapped from the seed on restart:"; cat "$tmp/server2.log"; exit 1
fi
grep -Eq "replayed=[1-9][0-9]*" "$tmp/server2.log" \
    || { echo "smoke-recover: nothing replayed from the WAL:"; cat "$tmp/server2.log"; exit 1; }

# Every preloaded key must still be served (puts only overwrote).
"$tmp/pbtree-loadgen" -addr "$addr" -keys "$keys" -conns 2 \
    -duration 1s -get 100 >"$tmp/verify.json"
ops=$(sed -n 's/^  "ops": \([0-9]*\),$/\1/p' "$tmp/verify.json")
notfound=$(sed -n 's/^  "not_found": \([0-9]*\),$/\1/p' "$tmp/verify.json")
[ -n "$ops" ] && [ "$ops" -gt 0 ] \
    || { echo "smoke-recover: verification sweep did nothing"; exit 1; }
[ "$notfound" = 0 ] \
    || { echo "smoke-recover: $notfound keys missing after recovery"; exit 1; }

# The recovered server still drains cleanly.
kill -TERM "$srv"
wait "$srv" || { echo "smoke-recover: restarted server exited nonzero:"; cat "$tmp/server2.log"; exit 1; }
srv=
grep -q "drained cleanly" "$tmp/server2.log" \
    || { echo "smoke-recover: no clean drain after recovery:"; cat "$tmp/server2.log"; exit 1; }

replayed=$(sed -n 's/.*replayed=\([0-9]*\).*/\1/p' "$tmp/server2.log" | awk '{s+=$1} END {print s}')
echo "smoke-recover: OK (backend $backend, kill -9 survived, $replayed WAL records replayed, $ops GETs verified, 0 missing)"
