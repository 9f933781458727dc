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
#     (CHANGES.md, EXPERIMENTS.md, ROADMAP.md, ISSUE.md) — a shard has
#     one tree, published as copy-on-write versions (DESIGN.md §16).
set -eu

stale=$(grep -rniE 'ping-pong|drainSpins|spare tree' --include='*.go' --include='*.md' --include='*.sh' \
    --exclude=CHANGES.md --exclude=EXPERIMENTS.md --exclude=ROADMAP.md --exclude=ISSUE.md \
    --exclude=docs_check.sh --exclude-dir=.bench_build --exclude-dir=bench . || true)
if [ -n "$stale" ]; then
    echo "docs-check: the two-tree engine's terms are history only:" >&2
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
