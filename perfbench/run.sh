#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sparse --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the binary stay in .bench_build/ at the root; the build never fetches
# anything (the module has no dependencies outside the repository).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
