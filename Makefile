# Developer entry points. `make` (or `make check`) is the full gate,
# and all CI runs besides `make golden-all`: build + vet + tests + the
# race detector over every package + the smoke tests (serve, recover,
# admin, failover) + the benchmark harness's own tests and a quick pass
# of the benchmark itself + a short fuzz of every Fuzz target + the
# documentation gate + the charge gate + the cross-compile matrix.

GO ?= go

.PHONY: check build test race vet conformance smoke-serve smoke-recover smoke-admin smoke-failover fuzz-smoke bench-harness docs-check charge-gate cross golden-all

check: build vet test race conformance smoke-serve smoke-recover smoke-admin smoke-failover bench-harness fuzz-smoke docs-check charge-gate cross

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Backend conformance suite: every storage engine (pbtree and lsm)
# must pass the same atomicity / snapshot-consistency / crash-recovery
# properties, under the race detector.
conformance:
	$(GO) test -race -count=1 ./internal/serve/backendtest/

# End-to-end server smoke test: start pbtree-server, drive ~2s of load
# with pbtree-loadgen, assert nonzero ops and a clean SIGTERM drain.
smoke-serve:
	sh scripts/smoke_serve.sh

# End-to-end crash-recovery smoke test: durable server, put-heavy
# load, kill -9 mid-load, restart on the same -data-dir, assert WAL
# replay and a complete key space. Runs once per storage backend.
smoke-recover:
	BACKEND=pbtree sh scripts/smoke_recover.sh
	BACKEND=lsm sh scripts/smoke_recover.sh

# Admin-plane smoke test: start pbtree-server with -admin, scrape
# /healthz, /metrics (asserting the per-stage and per-shard families
# and one family from each group of the counter table) and /statsz
# while load is running.
smoke-admin:
	sh scripts/smoke_admin.sh

# Failover smoke test: synchronous primary + read replica, put-heavy
# load, kill -9 the primary mid-load, promote the replica over the
# admin plane (/promote), assert the acked key space survives and the
# new primary serves writes. Runs once per storage backend.
smoke-failover:
	BACKEND=pbtree sh scripts/smoke_failover.sh
	BACKEND=lsm sh scripts/smoke_failover.sh

# Short-budget fuzz of every Fuzz target in the module (FUZZTIME=5s
# per target by default).
fuzz-smoke:
	sh scripts/fuzz_smoke.sh

# The repo's benchmark (BENCHMARK.json, bench/): the harness's unit
# tests, then every workload at a tenth of its length — same metric
# names and output checks as a full run, numbers not for comparison.
bench-harness:
	cd bench && $(GO) test ./...
	bash bench/run.sh -smoke

# Documentation gate: gofmt + vet + the godoc coverage test over
# internal/serve + the PROTOCOL.md byte-for-byte conformance test + the
# metric-family test (README.md and DESIGN.md against /metrics).
docs-check:
	sh scripts/docs_check.sh

# Charge gate: a native tree charges no memory model. Fails if a
# non-test file of internal/core other than charge.go calls a model
# verb directly, or if the compiler stops inlining one of the five
# charge helpers — the two ways the serving tree starts paying the
# simulator's dispatch again without any test noticing — or if one
# compares an epoch with 0, which would let a tree's lineage pick its
# shape again (DESIGN.md §16).
charge-gate:
	GO=$(GO) sh scripts/charge_gate.sh

# Cross-compile matrix: the hardware prefetch stubs must assemble on
# both asm targets and the module must still build where no stub
# exists (riscv64) or when it is disabled (-tags purego). Every native
# tree calls the stubs now — they are on the default path of the
# store, not behind a flag — so the purego test run is the proof that
# a build whose stubs are no-ops still returns the same answers: the
# memsys contract, and all of internal/core's native-vs-simulated
# differential tests, with no prefetch instruction in the binary — and,
# since a node is a block of a []uint32 arena, the proof that the arena
# needs no assembly either. The store's scans prefetch for a group
# too, so the conformance suite runs there as well: both engines must
# give the same answers through it. Block offsets are int arithmetic on
# u32 node ids, and 386 is the one target whose int is 32 bits, so
# vetting internal/core there catches a constant that overflows it.
cross:
	GOARCH=amd64 $(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=riscv64 $(GO) build ./...
	GOARCH=386 $(GO) vet ./internal/core/
	$(GO) build -tags purego ./...
	$(GO) test -tags purego ./internal/memsys/ ./internal/core/ ./internal/serve/backendtest/

# Full reproduction gate: regenerate every experiment at scale 0.1 and
# require each table byte-identical, in order, in results_scale0.1.txt
# (`make test` checks only a fast subset). About a minute; CI runs it
# as its own job, outside `make check`.
golden-all:
	PBTREE_GOLDEN_ALL=1 $(GO) test -count=1 ./internal/exp/
