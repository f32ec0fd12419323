#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root, for example:
#
#   bash bench/run.sh --workload control --seed 1 --seconds 16 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/genesys-bench" .
exec "$build/genesys-bench" "$@"
