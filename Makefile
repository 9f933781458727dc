# Developer entry points. `make` (or `make check`) is the full gate:
# build + vet + tests + the race detector over every package + the
# smoke tests (serve, recover, admin, failover) + the benchmark
# harness's own tests and a quick pass of the benchmark itself.

GO ?= go

.PHONY: check build test race vet conformance bench-smoke smoke-serve smoke-recover smoke-admin smoke-failover fuzz-smoke bench-harness bench-matrix bench-native docs-check cross

check: build vet test race conformance smoke-serve smoke-recover smoke-admin smoke-failover bench-harness

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

# A fast wall-clock sanity run of the native-mode benchmarks.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkNativeConcurrent' -benchtime 100x .

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
# /healthz, /metrics (asserting the per-stage and per-shard families),
# /statsz and /debug/vars while load is running.
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

# Benchmark matrix: every named loadgen scenario against every
# storage backend; writes the grid of reports to BENCH_matrix.json.
# Tunable via KEYS/DURATION/CONNS/WINDOW env vars (CI runs a short
# pass).
bench-matrix:
	sh scripts/bench_matrix.sh BENCH_matrix.json

# Native prefetch matrix: the oltp-point scenario across hardware
# prefetch x branchless search (server + loadgen), plus pbench's
# in-process wall-clock report; writes BENCH_native.json. Tunable via
# KEYS/DURATION/CONNS/WINDOW/SCALE env vars.
bench-native:
	sh scripts/bench_native.sh BENCH_native.json

# Documentation gate: gofmt + vet + the godoc coverage test over
# internal/serve + the PROTOCOL.md byte-for-byte conformance test.
docs-check:
	sh scripts/docs_check.sh

# Cross-compile matrix: the hardware prefetch stubs must assemble on
# both asm targets and the module must still build where no stub
# exists (riscv64) or when it is disabled (-tags purego). The purego
# test run proves the memsys contract holds with no-op stubs.
cross:
	GOARCH=amd64 $(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=riscv64 $(GO) build ./...
	$(GO) build -tags purego ./...
	$(GO) test -tags purego ./internal/memsys/ ./internal/core/
