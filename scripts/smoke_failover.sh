#!/bin/sh
# Failover smoke test (DESIGN.md §13): boot a synchronous primary and
# a read replica following it, check that pipelined synchronous writes
# neither expire nor fail, drive put-heavy load, kill -9 the primary
# mid-load, promote the replica over the admin plane, and assert that
# (a) the replica was really following (/replz role),
# (b) promotion answers with the primary role and a higher epoch,
# (c) the whole acked key space is served by the new primary
# (not_found == 0 under a GET-only sweep — synchronous replication
# means nothing acked was lost), and (d) the promoted server accepts
# writes and still drains cleanly.
#
# BACKEND selects the storage engine under test (pbtree or lsm,
# default pbtree); replication ships WAL frames, so it is
# engine-agnostic by construction — this script is where we prove it.
set -eu

backend="${BACKEND:-pbtree}"
tmp=$(mktemp -d)
pport=$((21000 + $$ % 1000))
fport=$((22000 + $$ % 1000))
fadmin_port=$((23000 + $$ % 1000))
paddr="127.0.0.1:$pport"
faddr="127.0.0.1:$fport"
fadmin="127.0.0.1:$fadmin_port"
keys=20000

cleanup() {
    [ -n "${psrv:-}" ] && kill -9 "$psrv" 2>/dev/null || true
    [ -n "${fsrv:-}" ] && kill -9 "$fsrv" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pbtree-server" ./cmd/pbtree-server
go build -o "$tmp/pbtree-loadgen" ./cmd/pbtree-loadgen
go build -o "$tmp/httpget" ./scripts/httpget

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "http://$fadmin$1"
    else
        "$tmp/httpget" "http://$fadmin$1"
    fi
}
promote() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf -X POST "http://$fadmin$1"
    else
        "$tmp/httpget" -post "http://$fadmin$1"
    fi
}

# Primary: durable, synchronous replication (a write acks only after
# the follower applied it — that is what makes the post-failover
# keyspace claim checkable).
"$tmp/pbtree-server" -addr "$paddr" -keys "$keys" -shards 4 \
    -backend "$backend" -data-dir "$tmp/primary" -fsync always \
    -repl-sync -repl-sync-timeout 10s >"$tmp/primary.log" 2>&1 &
psrv=$!

# Follower: same backend, its own directory, pulling from the primary.
"$tmp/pbtree-server" -addr "$faddr" -admin "$fadmin" -shards 4 \
    -backend "$backend" -data-dir "$tmp/follower" -fsync always \
    -replica-of "$paddr" >"$tmp/follower.log" 2>&1 &
fsrv=$!

# The follower's admin plane is up once /replz answers with the
# replica role.
ok=0
for _ in $(seq 1 50); do
    if fetch /replz >"$tmp/replz" 2>/dev/null && grep -q '"role": "replica"' "$tmp/replz"; then
        ok=1
        break
    fi
    kill -0 "$fsrv" 2>/dev/null || { echo "smoke-failover: follower died:"; cat "$tmp/follower.log"; exit 1; }
    sleep 0.2
done
[ "$ok" = 1 ] || { echo "smoke-failover: follower never reported the replica role"; cat "$tmp/follower.log"; exit 1; }
grep -q "following primary" "$tmp/follower.log" \
    || { echo "smoke-failover: follower not following:"; cat "$tmp/follower.log"; exit 1; }

# Synchronous writes flow once the follower has caught up (the seeded
# key space ships as a checkpoint first); poll with a tiny put burst.
ok=0
for _ in $(seq 1 50); do
    if "$tmp/pbtree-loadgen" -addr "$paddr" -keys "$keys" -conns 1 \
        -duration 200ms -put 100 -timeout 15s >/dev/null 2>&1; then
        ok=1
        break
    fi
    kill -0 "$psrv" 2>/dev/null || { echo "smoke-failover: primary died:"; cat "$tmp/primary.log"; exit 1; }
    sleep 0.2
done
[ "$ok" = 1 ] || { echo "smoke-failover: synchronous writes never started flowing"; cat "$tmp/primary.log"; cat "$tmp/follower.log"; exit 1; }

# Pipelined synchronous load: a write waits only for the follower's
# ack, so 32 calls in flight with a 1 s deadline must all complete.
"$tmp/pbtree-loadgen" -addr "$paddr" -keys "$keys" -conns 2 -window 16 \
    -duration 2s -put 50 -get 50 -timeout 1s >"$tmp/sync.json" 2>&1 || true
expired=$(sed -n 's/^  "deadline_expired": \([0-9]*\),$/\1/p' "$tmp/sync.json")
errors=$(sed -n 's/^  "errors": \([0-9]*\),$/\1/p' "$tmp/sync.json")
[ "$expired" = 0 ] && [ "$errors" = 0 ] \
    || { echo "smoke-failover: pipelined sync load: ${expired:-?} deadlines expired, ${errors:-?} errors:"; cat "$tmp/sync.json"; exit 1; }

# Put-heavy load, then a hard kill mid-load: the moment of failover.
"$tmp/pbtree-loadgen" -addr "$paddr" -keys "$keys" -conns 4 \
    -duration 5s -put 90 -get 10 -timeout 15s >/dev/null 2>&1 &
load=$!
sleep 1
kill -9 "$psrv"
psrv=
wait "$load" 2>/dev/null || true  # loadgen dies with the connection; expected

# Promote the follower over the admin plane — the failover runbook.
promote /promote >"$tmp/promote.json" \
    || { echo "smoke-failover: promotion failed:"; cat "$tmp/promote.json" 2>/dev/null; cat "$tmp/follower.log"; exit 1; }
grep -q '"role": "primary"' "$tmp/promote.json" \
    || { echo "smoke-failover: promotion did not yield the primary role:"; cat "$tmp/promote.json"; exit 1; }
grep -q '"epoch": 2' "$tmp/promote.json" \
    || { echo "smoke-failover: promotion did not raise the epoch:"; cat "$tmp/promote.json"; exit 1; }

# Every key the old primary ever acknowledged must be served by the
# new one. The preload plus put-only overwrites keep the key space
# fixed, so a GET-only sweep with not_found == 0 is exactly that claim
# (synchronous replication: an ack implied follower durability).
"$tmp/pbtree-loadgen" -addr "$faddr" -keys "$keys" -conns 2 \
    -duration 1s -get 100 >"$tmp/verify.json"
ops=$(sed -n 's/^  "ops": \([0-9]*\),$/\1/p' "$tmp/verify.json")
notfound=$(sed -n 's/^  "not_found": \([0-9]*\),$/\1/p' "$tmp/verify.json")
[ -n "$ops" ] && [ "$ops" -gt 0 ] \
    || { echo "smoke-failover: verification sweep did nothing"; exit 1; }
[ "$notfound" = 0 ] \
    || { echo "smoke-failover: $notfound acked keys missing after failover"; exit 1; }

# The new primary accepts writes.
"$tmp/pbtree-loadgen" -addr "$faddr" -keys "$keys" -conns 1 \
    -duration 300ms -put 100 >/dev/null 2>&1 \
    || { echo "smoke-failover: new primary rejects writes"; cat "$tmp/follower.log"; exit 1; }

# And still drains cleanly.
kill -TERM "$fsrv"
wait "$fsrv" || { echo "smoke-failover: promoted server exited nonzero:"; cat "$tmp/follower.log"; exit 1; }
fsrv=
grep -q "drained cleanly" "$tmp/follower.log" \
    || { echo "smoke-failover: no clean drain after promotion:"; cat "$tmp/follower.log"; exit 1; }

echo "smoke-failover: OK (backend $backend, kill -9 primary survived, promoted at epoch 2, $ops GETs verified, 0 missing)"
