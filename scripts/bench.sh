#!/bin/sh
# bench.sh — the repository's perf-trajectory harness.
#
# Runs the compiled-kernel microbenches (compile, feed, full-generation
# evaluation — the NetworkFeed/EvaluateGeneration patterns also match
# their Batch/Scalar variants, so the tensorized engine and the serial
# test reference are recorded side by side), the reproduction-kernel benches
# (cold speciation pass, full epoch, single compatibility distance at
# RAM scale), the replay-layer benches (one SoC generation, one EvE
# trace replay), the serving-layer throughput bench (jobs/sec through a
# real genesysd over loopback HTTP, serial vs parallel worker pool),
# the persistent-store hit bench (bytes/sec through a verified
# Get — the disk-replay fast path), the cluster throughput bench (a
# coordinator dispatching over loopback HTTP to a 1-worker vs 2-worker
# fleet — the ratio is the cluster-scaling headline), the NSGA-II
# non-dominated-sort benches (ENS-SS kernel vs the retained Deb-2002
# reference on the same population — the ratio is the multi-objective
# headline), and, unless BENCH_QUICK=1, the full-suite harness bench
# plus the root figure-regeneration benches, then renders everything
# into a machine-readable trajectory record via cmd/benchjson, written
# to the path given as the one required argument:
#
#	scripts/bench.sh BENCH_PRn.json                 # full run
#	BENCH_QUICK=1 scripts/bench.sh BENCH_PRn.json   # kernel + replay + serve + store + cluster + moea microbenches only
#
# The committed BENCH_PR*.json files are past records; name a new file
# rather than one of them.
#
# The JSON carries ns/op, B/op, allocs/op and custom figure metrics for
# every benchmark, the pinned pre-PR baselines, and headline speedup
# ratios — the numbers future perf PRs are judged against.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench.sh OUTPUT.json" >&2
    exit 2
fi
# A relative path names a file under the caller's directory.
case $1 in
/*) out=$1 ;;
*) out=$PWD/$1 ;;
esac

cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "== kernel microbenches"
go test -run=NONE -bench='BenchmarkNetworkCompile|BenchmarkNetworkFeed' \
    -benchmem -count=3 -benchtime=2s ./internal/network/ | tee -a "$tmp"
go test -run=NONE -bench='BenchmarkEvaluateGeneration' \
    -benchmem -count=5 -benchtime=3s ./internal/evolve/ | tee -a "$tmp"

echo "== reproduction-kernel benches (speciation, full epoch, distance)"
go test -run=NONE -bench='BenchmarkSpeciate$|BenchmarkEpoch$|BenchmarkCompatDistanceRAMScale' \
    -benchmem -count=3 -benchtime=3x ./internal/neat/ | tee -a "$tmp"

echo "== replay benches"
go test -run=NONE -bench='BenchmarkSoCRunGeneration' \
    -benchmem -count=3 -benchtime=1s ./internal/hw/soc/ | tee -a "$tmp"
go test -run=NONE -bench='BenchmarkEvEReplay' \
    -benchmem -count=3 -benchtime=1s ./internal/hw/eve/ | tee -a "$tmp"

echo "== serve throughput bench (daemon jobs/sec, serial vs parallel pool)"
go test -run=NONE -bench='BenchmarkServeThroughput' \
    -benchmem -count=2 -benchtime=1s ./internal/serve/ | tee -a "$tmp"

echo "== store hit bench (verified disk replay, bytes/sec)"
go test -run=NONE -bench='BenchmarkStoreHitThroughput' \
    -benchmem -count=3 -benchtime=1s ./internal/store/ | tee -a "$tmp"

echo "== cluster throughput bench (coordinator + fleet, 1 vs 2 workers)"
go test -run=NONE -bench='BenchmarkClusterThroughput' \
    -benchmem -count=2 -benchtime=1s ./internal/serve/ | tee -a "$tmp"

echo "== NSGA-II non-dominated-sort benches (ENS-SS kernel vs Deb-2002 reference)"
go test -run=NONE -bench='BenchmarkNonDominatedSort' \
    -benchmem -count=3 -benchtime=2s ./internal/moea/ | tee -a "$tmp"

if [ "${BENCH_QUICK:-0}" != "1" ]; then
    echo "== experiment-suite bench (full harness, cold cache per iteration)"
    go test -run=NONE -bench='BenchmarkExperimentSuite$' \
        -benchtime=1x -count=2 -timeout=60m ./internal/experiments/ | tee -a "$tmp"
    echo "== figure benches (also regenerates results/)"
    go test -run=NONE -bench=. -benchmem -benchtime=1x -timeout=60m . | tee -a "$tmp"
fi

go run ./cmd/benchjson < "$tmp" > "$out"
echo "wrote $out"
