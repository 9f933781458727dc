#!/usr/bin/env bash
# Builds the server under test and the harness from source into
# .bench_build/ at the root of the checkout, then runs the harness with
# the given arguments. Everything the Go toolchain writes (build cache,
# temp files, telemetry) is pointed inside .bench_build/ too, so a run
# reads and writes only inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# With telemetry on (the default, "local"), the go command forks a
# detached sidecar of itself that outlives the build; the mode file is
# the only switch it reads, so turn it off before the first go command.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOFLAGS=-modcacherw
go build -o "$out/pbtree-server" ./cmd/pbtree-server
go build -C bench -o "$out/pbtree-bench" .
exec "$out/pbtree-bench" -server "$out/pbtree-server" -work "$out" "$@"
