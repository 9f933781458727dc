#!/bin/sh
# Server smoke test: boot pbtree-server, drive ~2s of mixed load with
# pbtree-loadgen, then ~2s of pipelined mixed load, then SIGTERM and
# assert a clean graceful drain. Exits nonzero if the server fails to
# start, the loadgen completes zero operations (its own exit contract),
# the pipelined pass has an error or an expired deadline, or the drain
# is not clean.
set -eu

tmp=$(mktemp -d)
port=$((17000 + $$ % 1000))
addr="127.0.0.1:$port"
keys=100000

cleanup() {
    [ -n "${srv:-}" ] && kill "$srv" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pbtree-server" ./cmd/pbtree-server
go build -o "$tmp/pbtree-loadgen" ./cmd/pbtree-loadgen

"$tmp/pbtree-server" -addr "$addr" -keys "$keys" -shards 4 \
    >"$tmp/server.log" 2>&1 &
srv=$!

# Wait for the listener (up to ~5s), probing with a minimal load run.
ok=0
for _ in $(seq 1 25); do
    if "$tmp/pbtree-loadgen" -addr "$addr" -keys "$keys" -conns 1 \
        -duration 100ms >/dev/null 2>&1; then
        ok=1
        break
    fi
    kill -0 "$srv" 2>/dev/null || { echo "smoke-serve: server died:"; cat "$tmp/server.log"; exit 1; }
    sleep 0.2
done
[ "$ok" = 1 ] || { echo "smoke-serve: server never became reachable"; cat "$tmp/server.log"; exit 1; }

# The real run: 2s of the default mixed workload with Zipf skew.
"$tmp/pbtree-loadgen" -addr "$addr" -keys "$keys" -conns 4 \
    -duration 2s -skew zipf >"$tmp/loadgen.json"

# A pipelined pass: 16 calls in flight on each of 2 connections, so the
# client's writer sends batches of frames and the server answers them
# in bursts. Every call must complete: no error, no expired deadline.
"$tmp/pbtree-loadgen" -addr "$addr" -keys "$keys" -conns 2 -window 16 \
    -duration 2s -get 50 -mget 15 -scan 10 -put 15 -del 10 >"$tmp/pipelined.json" 2>&1 || true
expired=$(sed -n 's/^  "deadline_expired": \([0-9]*\),$/\1/p' "$tmp/pipelined.json")
errors=$(sed -n 's/^  "errors": \([0-9]*\),$/\1/p' "$tmp/pipelined.json")
[ "$expired" = 0 ] && [ "$errors" = 0 ] \
    || { echo "smoke-serve: pipelined load: ${expired:-?} deadlines expired, ${errors:-?} errors:"; cat "$tmp/pipelined.json"; exit 1; }

# Graceful drain.
kill -TERM "$srv"
wait "$srv" || { echo "smoke-serve: server exited nonzero:"; cat "$tmp/server.log"; exit 1; }
srv=
grep -q "drained cleanly" "$tmp/server.log" \
    || { echo "smoke-serve: no clean drain:"; cat "$tmp/server.log"; exit 1; }

ops=$(sed -n 's/^  "ops": \([0-9]*\),$/\1/p' "$tmp/loadgen.json")
echo "smoke-serve: OK ($ops ops, clean drain)"
