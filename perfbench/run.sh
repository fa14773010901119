#!/usr/bin/env bash
# Builds perfbench and cmd/mobilesimd from the checkout this is run in, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload flood-rounds --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes (binaries,
# the Go build cache, traced-run span files) stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOTELEMETRY=off
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/mobilesimd" ./cmd/mobilesimd
exec "$out/perfbench" --server "$out/mobilesimd" --trace-dir "$out/traces" "$@"
