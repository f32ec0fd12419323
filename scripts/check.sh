#!/bin/sh
# check.sh — the repository's local verification gate.
#
# Runs, in order: gofmt (fails on any unformatted file), go vet, a full
# build, the full test suite, go vet and go test over the separate bench
# module, the race detector over the packages that
# exercise concurrency (the evolve evaluation pool and study runner, the
# compiled-network kernel and its reuse cache, the hardware counter
# registry, fault injector included, the experiment harness's
# singleflight run cache + parallel scheduler, the persistent run
# store, the genesysd serving layer with its integration test, and the
# NEAT speciation kernel whose distance pass fans out over workers,
# and the NSGA-II sort whose determinism test runs concurrently), a
# cmd/genesys smoke (the only production caller of internal/core), a
# cmd/socreplay smoke (a short characterize trace replayed on EvE: a
# total line, and one JSON counter tree per trace generation), a
# server smoke that runs the real genesysd + genesysctl binaries end to
# end on an ephemeral port — including a multi-objective job whose
# Pareto-front stream must replay byte-identically from the shared run
# cache — a durability smoke that SIGKILLs a
# store-backed daemon and proves the restarted one verifies the
# committed run at boot and replays it from disk, a one-iteration smoke
# over the kernel, narrow batch feed, vector sin/cos, cartpole, acrobot,
# mountaincar, lunarlander and bipedal batch, whole-RAM-job, checkpoint
# codec, stored-run decode,
# replay and store benchmarks, boot verification (BenchmarkRecover)
# included (so a change that breaks a benchmark fails here), a
# one-iteration run of the root figure and ablation benchmarks that
# must leave results/ byte-identical (they are the only code that
# regenerates it), and a
# short fuzz smoke over the untrusted-input decoders (trace parser,
# binary genome record, NEAT population document, store manifest, the
# worker's /island/open, /island/step, /island/result and /island/close
# bodies, the POST /jobs and POST /cluster/join bodies, the client's
# SSE parser), the one-pass genome validator, the vector sin/cos
# kernel, the fused sigmoid vertex kernel, the acrobot, mountaincar and
# lunarlander step kernels and the batch environments. The trace
# parser, validator, sin/cos, sigmoid, step kernel and batch
# environment fuzzers are differential: each checks the fast code
# against its reference implementation (FuzzSinCosSlice checks every
# lane against math.Sin/math.Cos bit for bit, FuzzSigmoidRows every
# lane against the scalar sigmoid vertex, FuzzAcrobotStep,
# FuzzMountainCarStep and FuzzLunarLanderStep every lane of one batch
# step against the scalar Step, and FuzzBatchMatchesScalar every lane
# of NewBatch's batch against a scalar env, the last four both on the
# host's path and with the vector kernels off). The binary
# genome record and population fuzzers check that the decoder accepts
# only what the encoder writes: whatever Restore accepts, Save writes
# back byte for byte (Save(Restore(x)) == x). The /island/step fuzzer
# checks that a worker answers any body with 200, 400 or 404 and never
# steps a session past its generation budget; FuzzIslandSession that
# /island/result and /island/close answer only those codes and a 200
# close removes exactly the named session; FuzzIslandOpen that
# /island/open answers only 200 or 400 and a 200 opens exactly the
# named session with one runner per listed island. The POST /jobs fuzzer
# (FuzzSubmit) checks that the daemon answers any body without a 5xx
# and admits only jobs whose key name parses back to the key and whose
# population is within neat.MaxPopulationSize; FuzzClusterJoin that a
# coordinator answers any join body without a 5xx and a 200 adds
# exactly the body's address as one alive member. The SSE parser fuzzer
# (FuzzWatch) checks that Watch returns on any event-stream body, runs
# its callback at most once per generation event and returns no error
# only with a terminal state.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== bench module (go vet + go test)"
# bench/ is its own Go module, so the ./... runs above never compile it,
# yet it drives the experiments and serve APIs directly.
go -C bench vet ./...
go -C bench test ./...

echo "== go test -race (evolve, network, env, hw, experiments, serve, store, cluster, neat, gene, moea)"
# env is in the race set since the batch engine: BatchEnv lane state is
# advanced by evaluation workers whose batch tests (network batch
# differential, env lockstep, evolve batch-vs-serial) all run here.
# store is in it since the persistent run store: commits, hits, GC, and
# quarantine all cross the scheduler's worker pool. cluster is in it
# since fleet mode: membership heartbeats, ring rebuilds, and the
# sharded island session protocol are all cross-goroutine. neat and
# gene are in it since the speciation kernel: the parallel distance
# pass fans CompatDistance over worker goroutines reading shared
# genomes, and the kernel differential test forces multi-worker fan-out
# even on a single-core host. moea is in it since NSGA-II: its
# determinism test runs the sort from concurrent goroutines to prove
# byte-identical fronts at any parallelism.
go test -race ./internal/evolve/... ./internal/network/... ./internal/env/... \
    ./internal/hw/... ./internal/experiments/... ./internal/serve/... \
    ./internal/store/... ./internal/cluster/... ./internal/neat/... \
    ./internal/gene/... ./internal/moea/...

echo "== genesys smoke (hardware-in-the-loop, -save, functional, empty run)"
# cmd/genesys is the only production caller of internal/core. A tiny
# accounted run must print its summary and chip totals and write the
# best genome's record where -save says, a functional run must end,
# and a run with no finished generation has no chip time to average
# power over, so it must print no NaN.
savedir=$(mktemp -d)
gout=$(go run ./cmd/genesys -workload cartpole -pop 16 -generations 3 -quiet -save "$savedir/best.genome")
echo "$gout"
echo "$gout" | grep -q "^summary:" || { echo "genesys printed no summary" >&2; exit 1; }
echo "$gout" | grep -q "^soc: " || { echo "genesys printed no soc line" >&2; exit 1; }
[ -s "$savedir/best.genome" ] || { echo "genesys -save wrote no genome" >&2; exit 1; }
rm -rf "$savedir"
gout=$(go run ./cmd/genesys -workload cartpole -pop 16 -generations 3 -quiet -functional)
echo "$gout"
echo "$gout" | grep -Eq "solved at generation|budget exhausted" \
    || { echo "functional genesys run did not end" >&2; exit 1; }
gout=$(go run ./cmd/genesys -workload cartpole -pop 8 -generations 0 -quiet)
echo "$gout"
if echo "$gout" | grep -q NaN; then echo "genesys printed NaN" >&2; exit 1; fi

echo "== socreplay smoke (characterize trace, replay, per-generation JSON)"
# cmd/socreplay prints every value from the EvE counter tree it resets
# per generation; a short alien-ram trace must replay to a total line
# and write one counter-tree record per G line of the trace.
replaydir=$(mktemp -d)
go run ./cmd/characterize -workload alien-ram -pop 20 -generations 3 \
    -trace "$replaydir/alien.trace" > /dev/null
rout=$(go run ./cmd/socreplay -trace "$replaydir/alien.trace" -json "$replaydir/counters.json")
echo "$rout"
echo "$rout" | grep -q "^total: " || { echo "socreplay printed no total line" >&2; exit 1; }
gens=$(grep -c '^G ' "$replaydir/alien.trace" || true)
recs=$(grep -c '"generation":' "$replaydir/counters.json" || true)
[ "$gens" -gt 0 ] && [ "$recs" -eq "$gens" ] \
    || { echo "socreplay wrote $recs records for $gens trace generations" >&2; exit 1; }
rm -rf "$replaydir"

echo "== genesysd smoke (real binaries, ephemeral port)"
smokedir=$(mktemp -d)
go build -o "$smokedir/genesysd" ./cmd/genesysd
go build -o "$smokedir/genesysctl" ./cmd/genesysctl
"$smokedir/genesysd" -addr 127.0.0.1:0 -addr-file "$smokedir/addr" &
daemon=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr" ] && break
    sleep 0.1
done
addr="http://$(cat "$smokedir/addr")"
# A tiny CartPole job end to end: the watch output must carry SSE
# generation records and a terminal done state.
watch_out=$("$smokedir/genesysctl" -addr "$addr" submit \
    -workload cartpole -pop 24 -generations 3 -watch)
echo "$watch_out"
echo "$watch_out" | grep -q "gen " || { echo "no SSE generation records" >&2; exit 1; }
echo "$watch_out" | grep -q ": done solved=" || { echo "job did not finish" >&2; exit 1; }
# /metrics must be valid JSON: genesysctl decodes the body into the
# counter-report type (dying on malformed JSON) before re-rendering it.
"$smokedir/genesysctl" -addr "$addr" metrics > "$smokedir/metrics.json"
grep -q '"genesysd"' "$smokedir/metrics.json" || { echo "metrics missing root" >&2; exit 1; }
# The per-phase generation accounting must be present and nonzero after
# a computed job: the local executor mounts its "phases" node into the
# tree and every Step charges evaluate/speciate/reproduce wall-clock.
for phase in evaluate_ns speciate_ns reproduce_ns; do
    grep -q "\"$phase\": [1-9]" "$smokedir/metrics.json" \
        || { echo "metrics missing nonzero $phase" >&2; exit 1; }
done
# A multi-objective (NSGA-II) job end to end: the watch stream must
# carry Pareto-front records after the history, and an identical
# resubmission must replay the exact same stream from the shared run
# cache — byte-identical modulo the job ids.
p1=$("$smokedir/genesysctl" -addr "$addr" submit \
    -workload cartpole -pop 24 -generations 3 -seed 888 \
    -objectives fitness+genes+energy -watch)
echo "$p1" | tail -4
echo "$p1" | grep -q "front point" || { echo "no Pareto-front records" >&2; exit 1; }
echo "$p1" | grep -q ": done solved=" || { echo "pareto job did not finish" >&2; exit 1; }
p2=$("$smokedir/genesysctl" -addr "$addr" submit \
    -workload cartpole -pop 24 -generations 3 -seed 888 \
    -objectives fitness+genes+energy -watch)
strip_ids() { grep -v '^submitted ' | sed 's/job-[0-9]*//g'; }
[ "$(echo "$p1" | strip_ids)" = "$(echo "$p2" | strip_ids)" ] \
    || { echo "pareto replay not byte-identical to the live stream" >&2; exit 1; }
# SIGTERM must drain cleanly.
kill -TERM "$daemon"
wait "$daemon" || { echo "genesysd exited non-zero on SIGTERM" >&2; exit 1; }

echo "== store durability smoke (kill -9 the daemon, restart, replay from disk)"
# Life 1: a store-backed daemon computes one job, then dies hard —
# SIGKILL, no drain, no goodbye. Life 2 over the same -store-dir must
# serve the identical resubmission from disk (stored=true, one
# store_hit) without re-running the evolution.
"$smokedir/genesysd" -addr 127.0.0.1:0 -addr-file "$smokedir/addr2" \
    -store-dir "$smokedir/store" -checkpoint-dir "$smokedir/ckpt" &
daemon=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr2" ] && break
    sleep 0.1
done
addr="http://$(cat "$smokedir/addr2")"
out1=$("$smokedir/genesysctl" -addr "$addr" submit \
    -workload cartpole -pop 24 -generations 3 -seed 777 -watch)
echo "$out1" | grep -q "stored=false" || { echo "first life claims a store hit" >&2; exit 1; }
kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
"$smokedir/genesysd" -addr 127.0.0.1:0 -addr-file "$smokedir/addr3" \
    -store-dir "$smokedir/store" -checkpoint-dir "$smokedir/ckpt" > "$smokedir/boot3.log" &
daemon=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr3" ] && break
    sleep 0.1
done
addr="http://$(cat "$smokedir/addr3")"
out2=$("$smokedir/genesysctl" -addr "$addr" submit \
    -workload cartpole -pop 24 -generations 3 -seed 777 -watch)
echo "$out2"
echo "$out2" | grep -q "stored=true" || { echo "restart did not replay from the store" >&2; exit 1; }
# The boot line is printed before the daemon serves, so the answered
# submission above guarantees it is in the log: the one committed run
# must have verified at boot.
cat "$smokedir/boot3.log"
grep -q ": 1 verified, 0 quarantined," "$smokedir/boot3.log" \
    || { echo "restart did not verify the committed run at boot" >&2; exit 1; }
"$smokedir/genesysctl" -addr "$addr" metrics > "$smokedir/metrics3.json"
grep -q '"store_hits": 1' "$smokedir/metrics3.json" \
    || { echo "metrics missing the store hit" >&2; exit 1; }
# The replayed run is in the store, so the run cache holds it as
# evictable: one held run.
grep -q '"held_runs": 1' "$smokedir/metrics3.json" \
    || { echo "metrics do not show the replayed run held" >&2; exit 1; }
kill -TERM "$daemon"
wait "$daemon" || { echo "genesysd exited non-zero on SIGTERM" >&2; exit 1; }

echo "== cluster fleet smoke (coordinator + 2 workers, kill -9 one mid-job)"
# A real 3-process fleet over loopback: the coordinator admits, two
# workers execute against a shared checkpoint directory. One worker is
# SIGKILLed while it runs the job; the coordinator must mark it dead,
# re-dispatch, and the survivor must resume from the orphaned
# checkpoint — the watch stream ends done with resumed=true — and
# remove it on completion. Both workers save the job's one checkpoint
# file, <key>.ckpt.
fleetckpt="$smokedir/fleet-ckpt"
"$smokedir/genesysd" -coordinator -addr 127.0.0.1:0 -addr-file "$smokedir/coord-addr" \
    -heartbeat-every 200ms -heartbeat-timeout 300ms -fail-after 2 &
coord=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/coord-addr" ] && break
    sleep 0.1
done
coord_addr="http://$(cat "$smokedir/coord-addr")"
"$smokedir/genesysd" -worker -join "$coord_addr" -addr 127.0.0.1:0 \
    -addr-file "$smokedir/w1-addr" -checkpoint-dir "$fleetckpt" -checkpoint-every 1 &
w1=$!
"$smokedir/genesysd" -worker -join "$coord_addr" -addr 127.0.0.1:0 \
    -addr-file "$smokedir/w2-addr" -checkpoint-dir "$fleetckpt" -checkpoint-every 1 &
w2=$!
for _ in $(seq 1 150); do
    alive=$("$smokedir/genesysctl" -addr "$coord_addr" cluster | grep -c " true " || true)
    [ "$alive" -ge 2 ] && break
    sleep 0.1
done
[ "$alive" -ge 2 ] || { echo "workers never joined the fleet" >&2; exit 1; }
w1_addr="http://$(cat "$smokedir/w1-addr")"
w2_addr="http://$(cat "$smokedir/w2-addr")"
# A slow job (the RAM workload, generous generation budget) so the
# victim is reliably mid-run when killed.
"$smokedir/genesysctl" -addr "$coord_addr" submit \
    -workload alien-ram -pop 30 -generations 40 -seed 4242 -watch \
    > "$smokedir/fleet-watch" 2>&1 &
watcher=$!
# Find the worker actually running it, wait for its first checkpoint
# (the key's rename-committed .ckpt — a .ckpt.tmp* beside it is a save
# still staging, which the kill tears and nothing resumes from), then
# kill -9.
victim=""
for _ in $(seq 1 200); do
    if "$smokedir/genesysctl" -addr "$w1_addr" list | grep -q running; then victim=$w1; break; fi
    if "$smokedir/genesysctl" -addr "$w2_addr" list | grep -q running; then victim=$w2; break; fi
    sleep 0.1
done
[ -n "$victim" ] || { echo "no worker picked the job up" >&2; exit 1; }
fleetkey="$fleetckpt/alien-ram-p30-g40-s4242.ckpt"
for _ in $(seq 1 200); do
    [ -f "$fleetkey" ] && break
    sleep 0.1
done
[ -f "$fleetkey" ] || { echo "no checkpoint $fleetkey before kill" >&2; exit 1; }
kill -9 "$victim"
wait "$victim" 2>/dev/null || true
wait "$watcher" || { echo "fleet watch exited non-zero" >&2; cat "$smokedir/fleet-watch" >&2; exit 1; }
tail -3 "$smokedir/fleet-watch"
grep -q ": done solved=" "$smokedir/fleet-watch" \
    || { echo "fleet job did not finish after worker kill" >&2; cat "$smokedir/fleet-watch" >&2; exit 1; }
grep -q "resumed=true" "$smokedir/fleet-watch" \
    || { echo "failover did not resume from the orphaned checkpoint" >&2; cat "$smokedir/fleet-watch" >&2; exit 1; }
left=$(find "$fleetckpt" -name '*.ckpt')
[ -z "$left" ] || { echo "checkpoint left after the fleet job completed: $left" >&2; exit 1; }
"$smokedir/genesysctl" -addr "$coord_addr" metrics | grep -q '"redispatched": ' \
    || { echo "metrics missing the cluster redispatch counter" >&2; exit 1; }
kill -TERM "$coord" 2>/dev/null || true
for p in "$w1" "$w2"; do kill -TERM "$p" 2>/dev/null || true; done
wait "$coord" 2>/dev/null || true
wait "$w1" 2>/dev/null || true
wait "$w2" 2>/dev/null || true
rm -rf "$smokedir"

echo "== bench smoke (kernel + narrow batch feed + sin/cos + cartpole, acrobot, mountaincar, lunarlander and bipedal batch + batch + whole RAM job + checkpoint codec + stored-run decode + replay trajectory + store benches, 1 iteration)"
# The NetworkFeed/EvaluateGeneration patterns are prefixes, so
# BenchmarkNetworkFeedBatch, BenchmarkNetworkFeedBatchNarrow (width 4,
# 3 active lanes, on 2-, 8- and 24-input genomes: the shape of most
# control-workload calls), BenchmarkEvaluateGenerationScalar (the
# serial test reference evaluator) and BenchmarkEvaluateGenerationRAM
# (alien-ram through the batch engine and through per-episode jobs)
# smoke here too. BenchmarkRunRAM is one whole five-generation RAM-game
# job. BenchmarkSinCosSlice runs its cartpole-window and acrobot-range
# cases; BenchmarkAcrobotStepAll, BenchmarkMountainCarStepAll,
# BenchmarkLunarLanderStepAll and BenchmarkBipedalStepAll their native
# and generic batches, each at width 64 with every lane active and at
# width 4 with 3 active lanes, and the native one at width 16 with 15
# active lanes.
go test -run=NONE -bench='BenchmarkNetworkCompile|BenchmarkNetworkFeed' \
    -benchtime=1x ./internal/network/
go test -run=NONE -bench='BenchmarkSinCosSlice' \
    -benchtime=1x ./internal/vmath/
go test -run=NONE -bench='BenchmarkCartPoleStepAll|BenchmarkAcrobotStepAll|BenchmarkMountainCarStepAll|BenchmarkLunarLanderStepAll|BenchmarkBipedalStepAll' \
    -benchtime=1x ./internal/env/
go test -run=NONE -bench='BenchmarkSpeciate$|BenchmarkEpoch$|BenchmarkCheckpoint' \
    -benchtime=1x ./internal/neat/
go test -run=NONE -bench='BenchmarkEvaluateGeneration|BenchmarkRunRAM' \
    -benchtime=1x ./internal/evolve/
go test -run=NONE -bench='BenchmarkDecodeRun' \
    -benchtime=1x ./internal/experiments/
go test -run=NONE -bench='BenchmarkSoCRunGeneration' \
    -benchtime=1x ./internal/hw/soc/
go test -run=NONE -bench='BenchmarkEvEReplay' \
    -benchtime=1x ./internal/hw/eve/
go test -run=NONE -bench='BenchmarkServeThroughput' \
    -benchtime=1x ./internal/serve/
go test -run=NONE -bench='BenchmarkStoreHitThroughput|BenchmarkRecover' \
    -benchtime=1x ./internal/store/
go test -run=NONE -bench='BenchmarkClusterThroughput' \
    -benchtime=1x ./internal/serve/
go test -run=NONE -bench='BenchmarkNonDominatedSort' \
    -benchtime=1x ./internal/moea/

echo "== results/ smoke (root figure + ablation benches, 1 iteration)"
# BenchmarkFigures rewrites every results/<id>.txt; a change that moves
# a figure, or a figure with no committed file, fails here.
resdir=$(mktemp -d)
cp -R results/. "$resdir"
go test -run=NONE -bench=. -benchtime=1x .
diff -r "$resdir" results || { echo "root benches changed results/" >&2; exit 1; }
rm -rf "$resdir"

echo "== fuzz smoke (trace parser, genome validator, vector sin/cos, sigmoid vertex, acrobot, mountaincar and lunarlander steps and batch environments against their references; genome record and neat population, Save(Restore(x)) == x; store manifest; /island/* bodies; POST /jobs and /cluster/join bodies; client SSE parser)"
# -fuzzminimizetime is bounded in execs: the default 60s-per-input
# minimization budget would eat the whole smoke window on the
# multi-kilobyte population corpus entries. FuzzRestore's oracle is
# the canonical property: whatever Restore accepts, Save writes back
# byte for byte; FuzzRecord checks the same of one genome record.
# FuzzWatch drives serve.Client.Watch against an httptest server that
# answers with the fuzz input as the event stream. FuzzSinCosSlice
# reads 1–12 float64 lanes from raw bits, so NaN payloads, ±Inf,
# subnormals, ±0 and |x| ≥ 2^29 reach the kernel and its fallback.
# FuzzSigmoidRows reads a width of 4–8 lanes, an active count, 1–3
# vertices with a fan-in of 0–3 each and every lane of the rows from raw
# bits, and also checks that no source row changes and nothing past a
# row is written. FuzzAcrobotStep reads a width of 1–9, an active
# count and every lane's state (NaN allowed anywhere) and torque (any
# bits), steps the acrobot batch once and checks each active lane
# against the scalar Step and each inactive one unchanged;
# FuzzMountainCarStep and FuzzLunarLanderStep do the same for their
# batches, with every action row as raw bits. FuzzIslandOpen skips a
# body whose population decodes above 64 to keep each run small.
# FuzzBatchMatchesScalar reads a registered environment, a width of
# 1–9, every lane's seed and the action planes (NaN and ±Inf among the
# actions), and drives NewBatch's batch against scalar envs bit for
# bit, retiring finished lanes by swap as the batch scheduler does.
go test -run=NONE -fuzz=FuzzParse -fuzztime=5s -fuzzminimizetime=50x ./internal/trace/
go test -run=NONE -fuzz=FuzzSinCosSlice -fuzztime=5s -fuzzminimizetime=50x ./internal/vmath/
go test -run=NONE -fuzz=FuzzSigmoidRows -fuzztime=5s -fuzzminimizetime=50x ./internal/vmath/
go test -run=NONE -fuzz=FuzzAcrobotStep -fuzztime=5s -fuzzminimizetime=50x ./internal/env/
go test -run=NONE -fuzz=FuzzMountainCarStep -fuzztime=5s -fuzzminimizetime=50x ./internal/env/
go test -run=NONE -fuzz=FuzzLunarLanderStep -fuzztime=5s -fuzzminimizetime=50x ./internal/env/
go test -run=NONE -fuzz=FuzzBatchMatchesScalar -fuzztime=5s -fuzzminimizetime=50x ./internal/env/
go test -run=NONE -fuzz=FuzzValidate -fuzztime=5s -fuzzminimizetime=50x ./internal/gene/
go test -run=NONE -fuzz=FuzzRecord -fuzztime=5s -fuzzminimizetime=50x ./internal/gene/
go test -run=NONE -fuzz=FuzzRestore -fuzztime=5s -fuzzminimizetime=50x ./internal/neat/
go test -run=NONE -fuzz=FuzzManifest -fuzztime=5s -fuzzminimizetime=50x ./internal/store/
go test -run=NONE -fuzz=FuzzIslandStep -fuzztime=5s -fuzzminimizetime=50x ./internal/cluster/
go test -run=NONE -fuzz=FuzzIslandSession -fuzztime=5s -fuzzminimizetime=50x ./internal/cluster/
go test -run=NONE -fuzz=FuzzIslandOpen -fuzztime=5s -fuzzminimizetime=50x ./internal/cluster/
go test -run=NONE -fuzz=FuzzWatch -fuzztime=5s -fuzzminimizetime=50x ./internal/serve/
go test -run=NONE -fuzz=FuzzSubmit -fuzztime=5s -fuzzminimizetime=50x ./internal/serve/
go test -run=NONE -fuzz=FuzzClusterJoin -fuzztime=5s -fuzzminimizetime=50x ./internal/serve/

echo "ok"
