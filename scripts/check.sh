#!/bin/sh
# Expanded tier-1 gate: vet + build + race-enabled tests + fuzz smoke,
# then vet + tests of the nested perfbench module.
#
# The race run includes the serial/parallel equivalence stress test
# (internal/analysis/parallel_test.go), the batch/serial equivalence
# tests at batch sizes 1, 16 and 256 (internal/analysis/batch_test.go —
# the one analysis engine's synchronous ProcessBatch, its queue-fed
# SubmitBatch and per-record processing must be observationally
# identical, including across mid-batch promotions), the cluster-mode
# e2e suite (cmd/infilterd/cluster_daemon_test.go — two-node snapshot
# convergence against a single-node union daemon, peer-down isolation,
# and the 3-node in-process kill-one test inside a goroutine-leak gate)
# and every goroutine-leak test, so a pass means the sharded pipeline
# is race-clean under concurrent load, batching changes no verdict,
# replication converges without leaking workers, and no background
# worker outlives its Close. The fuzz smoke discovers every
# native fuzz target in the module and runs each briefly against fresh
# random inputs on top of the checked-in seed corpus, so new targets are
# picked up without editing this script. perfbench is a nested module, so
# `./...` never compiles it; its own step catches an internal API change
# that would break the benchmark.
#
# Usage: scripts/check.sh [fuzztime]   (default fuzz smoke: 5s per target)
set -eu
cd "$(dirname "$0")/.."
FUZZTIME="${1:-5s}"

echo "==> go vet ./..."
go vet ./...

# CI pins staticcheck in its lint job; locally it gates only when the
# binary is already on PATH, because the dev container has no network.
if command -v staticcheck >/dev/null 2>&1; then
	echo "==> staticcheck ./..."
	staticcheck ./...
else
	echo "==> staticcheck not installed; skipping (CI lint job runs it)"
fi

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> fuzz smoke (${FUZZTIME} per target)"
# `go test -list` prints each package's matching targets followed by its
# "ok <import-path> ..." line; pair them up into "pkg target" rows.
TARGETS=$(go test -list '^Fuzz' ./... | awk '
	/^Fuzz/   { names[n++] = $1; next }
	$1 == "ok" { for (i = 0; i < n; i++) print $2, names[i]; n = 0 }')
if [ -z "$TARGETS" ]; then
	echo "error: fuzz smoke found no fuzz targets" >&2
	exit 1
fi
echo "$TARGETS" | while read -r pkg target; do
	echo "--> $pkg $target"
	go test -run=NoSuchTest -fuzz="^${target}\$" -fuzztime="$FUZZTIME" "$pkg" || exit 1
done

echo "==> perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

echo "==> all checks passed"
