#!/usr/bin/env bash
# Builds infilterd and the benchmark from this checkout, then runs one
# measurement. Run it from the repository root:
#
#   bash perfbench/run.sh --workload legal-v5 --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, both binaries, per-run scratch files and
# the spans files of traced runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/runs"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off GOWORK=off GOFLAGS=-mod=mod

gobin=go
if ! command -v go >/dev/null 2>&1; then
	gobin=/usr/local/go/bin/go
fi

"$gobin" build -o "$build/infilterd" ./cmd/infilterd
(cd perfbench && "$gobin" build -o "$build/perfbench" .)
exec "$build/perfbench" --daemon "$build/infilterd" --out "$build/runs" "$@"
