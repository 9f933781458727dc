#!/bin/sh
# Charge gate: the two ways a native tree quietly starts paying for a
# memory model again (DESIGN.md §6), and the one way its shape could
# start depending on its lineage again (DESIGN.md §16).
#   - Only internal/core/charge.go may call a model verb on the tree's
#     simulator; every other non-test file of the package goes through
#     its five helpers, which do nothing on a native tree.
#   - The compiler must report all five helpers as inlinable, or each
#     of those call sites is a real call again.
#   - No non-test file of the package compares an epoch with 0: t.sim
#     alone picks a tree's shape, a live older version alone picks
#     copy-before-write, and being forked picks nothing.
#   - The compiler must report the native descent kernel's per-level
#     helpers (DESIGN.md §14) as inlinable too — the block locate, its
#     prefetch and the two steps of the key count — or a native
#     descent pays a call for each of them at every level again.
set -eu

direct=$(grep -nE '\.(mem|sim)\.(Access|AccessRange|Compute|Prefetch|PrefetchRange)\(' internal/core/*.go |
    grep -vE '^internal/core/(charge\.go|[a-z_]+_test\.go):' || true)
if [ -n "$direct" ]; then
    echo "charge-gate: model verbs called outside internal/core/charge.go:" >&2
    echo "$direct" >&2
    exit 1
fi

# (Fork's wrap check, uint32(a.epoch) == 0, tests the low word the
# birth table stores, not the lineage, and is not matched.)
lineage=$(grep -nE '[Ee]poch[[:space:]]*[!=]=[[:space:]]*0([^0-9xX.]|$)|(^|[^0-9A-Za-z_.])0[[:space:]]*[!=]=[[:space:]]*[A-Za-z_.]*[Ee]poch([^A-Za-z0-9_(]|$)' internal/core/*.go |
    grep -vE '^internal/core/[a-z_]+_test\.go:' || true)
if [ -n "$lineage" ]; then
    echo "charge-gate: an epoch compared with 0 selects a path by lineage (use t.sim or t.olderLive()):" >&2
    echo "$lineage" >&2
    exit 1
fi

# (The go command replays a cached compile's diagnostics, so no -a.)
m=$(${GO:-go} build -gcflags=-m ./internal/core 2>&1) || {
    echo "$m" >&2
    exit 1
}
inl=$(echo "$m" | grep -E 'charge\.go:[0-9]+:[0-9]+: can inline ' || true)
for verb in compute access accessRange prefetch prefetchRange; do
    if ! echo "$inl" | grep -q "can inline (\*Tree)\.$verb\$"; then
        echo "charge-gate: (*Tree).$verb is no longer inlinable" >&2
        exit 1
    fi
done
for helper in locate pfBlock runsBelow countRun; do
    if ! echo "$m" | grep -qE "\.go:[0-9]+:[0-9]+: can inline (\(\*Tree\)\.)?$helper\$"; then
        echo "charge-gate: the native descent's $helper is no longer inlinable" >&2
        exit 1
    fi
done
echo "charge-gate: OK"
