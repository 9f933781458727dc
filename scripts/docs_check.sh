#!/bin/sh
# Documentation gate: fails when the serving layer's docs drift from
# the code.
#   - gofmt must be clean (doc comments are part of the formatted
#     source).
#   - go vet over everything.
#   - TestExportedSymbolsDocumented: every exported symbol in
#     internal/serve, the storage-engine packages and internal/repl
#     carries a doc comment.
#   - TestProtocolSpec*: PROTOCOL.md's example frames match the codec
#     byte for byte and its size-limit table matches the constants.
#   - TestMetricFamiliesDocumented: every pbtree_* metric family
#     README.md or DESIGN.md names is in /metrics, and every family in
#     /metrics is in DESIGN.md's metric reference.
#   - No stale terms: the two-tree engine's vocabulary ("ping-pong",
#     "drainSpins", "spare tree") appears only where history is kept
#     (every Markdown file at the root other than README.md, DESIGN.md
#     and PROTOCOL.md, the current reference) — a shard has
#     one tree, published as copy-on-write versions (DESIGN.md §16).
#     Likewise, case-sensitive, the deleted read-replica client
#     ("ReplicaSet"), the loadgen's "-replicas" flag and its hot-set
#     skew ("hotset", "HotSet"): an ordinary client reads a follower.
#     And the serving knobs that became constants: the admission
#     config and its fields, the lifecycle's rate and event caps, the
#     follower's fetch budget, the WAL's fsync interval and the
#     server's "-fsync-interval" and "-stages" flags (stage tracing is
#     always on), and the follower's poll interval ("DefaultPoll",
#     "-repl-poll": the primary holds a caught-up FETCH instead).
#     And the deleted worker pool ("workerPool", STATS "pool_size",
#     the "pbtree_pool_" metric families, the "resp_queue" stage): one
#     goroutine answers a connection.
#     And the deleted admission budgets ("newAdmission", the test-only
#     "withBudgets", the "pbtree_admission_" metric families, STATS
#     "BudgetStats", the loadgen's "rejected_by_class"): a connection's
#     burst is its own bound.
set -eu

history='--exclude=docs_check.sh --exclude-dir=.bench_build --exclude-dir=bench'
for f in *.md; do
    case $f in
    README.md | DESIGN.md | PROTOCOL.md) ;;
    *) history="$history --exclude=$f" ;;
    esac
done

# $history is left unquoted on purpose: it splits into grep options.
stale=$(grep -rniE 'ping-pong|drainSpins|spare tree' --include='*.go' --include='*.md' --include='*.sh' \
    $history . || true)
if [ -n "$stale" ]; then
    echo "docs-check: the two-tree engine's terms are history only:" >&2
    echo "$stale" >&2
    exit 1
fi

stale=$(grep -rnE 'ReplicaSet|hotset|HotSet|(^|[^[:alnum:]_-])-replicas([^[:alnum:]_-]|$)' \
    --include='*.go' --include='*.md' --include='*.sh' $history . || true)
if [ -n "$stale" ]; then
    echo "docs-check: the read-replica client and the loadgen's replica and hot-set options are history only:" >&2
    echo "$stale" >&2
    exit 1
fi

stale=$(grep -rnE 'AdmissionConfig|ReadTokens|WriteTokens|ScanRowTokens|RetryAfter(Read|Write|Scan)|SlowPerSec|TraceEvents|MaxFetchBytes|FsyncInterval|DefaultPoll|(^|[^[:alnum:]_-])-(fsync-interval|stages|repl-poll)([^[:alnum:]_-]|$)' \
    --include='*.go' --include='*.md' --include='*.sh' $history . || true)
if [ -n "$stale" ]; then
    echo "docs-check: the serving knobs that became constants are history only:" >&2
    echo "$stale" >&2
    exit 1
fi

stale=$(grep -rnE 'workerPool|pool_size|pbtree_pool_|resp_queue' \
    --include='*.go' --include='*.md' --include='*.sh' $history . || true)
if [ -n "$stale" ]; then
    echo "docs-check: the worker pool is history only:" >&2
    echo "$stale" >&2
    exit 1
fi

stale=$(grep -rnE 'newAdmission|withBudgets|pbtree_admission_|rejected_by_class|BudgetStats' \
    --include='*.go' --include='*.md' --include='*.sh' $history . || true)
if [ -n "$stale" ]; then
    echo "docs-check: the admission budgets are history only:" >&2
    echo "$stale" >&2
    exit 1
fi

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "docs-check: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go test ./internal/serve -run 'TestExportedSymbolsDocumented|TestProtocolSpec' -count=1
go test ./internal/repl -run 'TestMetricFamiliesDocumented' -count=1
echo "docs-check: OK"
