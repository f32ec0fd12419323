package experiments

import (
	"context"
	"errors"

	"repro/internal/evolve"
	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// This file is the island-model run kind over the shared tier: keys
// carry the island fields, the store artifact is one islands.json
// whose champions are binary genome records. The
// computation is pluggable — the single-process reference by default,
// the coordinator's distributed executor in cluster mode — because
// both produce byte-identical IslandRuns, so what lands in the cache
// and the store is independent of where the islands evolved.

// islandSchema stamps islands.json artifacts. /2 holds champions as
// base64 genome records where /1 held JSON genome objects.
const islandSchema = "genesys-island/2"

const islandsFile = "islands.json"

// IslandRequest describes one island-model run to resolve through the
// shared cache. The tuple (Workload, Population, Generations, Islands,
// MigrationEvery, Seed) is the identity; the rest shapes execution.
type IslandRequest struct {
	Workload       string
	Population     int
	Generations    int
	Islands        int
	MigrationEvery int
	Seed           uint64

	// Ctx cancels a cache-miss computation; nil means Background.
	Ctx context.Context
	// Parallelism shapes each island runner's evaluation
	// (single-process path only; a distributed Run ships its own).
	Parallelism int
	// Phases, when set, receives the island runners' live per-phase
	// wall-clock counters on a single-process cache-miss computation
	// (metrics only, never stored).
	Phases *hwsim.Counters
	// Run, when set, executes the cache-miss computation — the
	// coordinator passes the distributed fleet executor here. Nil runs
	// the single-process reference (evolve.RunIslands). Either way the
	// result must be the deterministic IslandRun of the tuple.
	Run func(ctx context.Context) (*evolve.IslandRun, error)
}

// IslandOutcome is the result of a shared island request.
type IslandOutcome struct {
	Run *evolve.IslandRun
	// Computed is true only for the request whose computation executed.
	Computed bool
	// Stored reports the cache miss was served from the persistent
	// store (no computation ran).
	Stored bool
}

// RunSharedIsland resolves one island-model run through the package's
// singleflight cache and the persistent store, computing on a cold
// miss via req.Run (or the single-process reference when unset).
func RunSharedIsland(req IslandRequest) (*IslandOutcome, error) {
	job := JobRequest{
		Key: store.Key{Workload: req.Workload, Population: req.Population, Generations: req.Generations,
			Seed: req.Seed, Islands: req.Islands, MigrationEvery: req.MigrationEvery},
		Ctx:         req.Ctx,
		Parallelism: req.Parallelism,
		Phases:      req.Phases,
	}
	if req.Run != nil {
		job.RunIslands = func(ctx context.Context, _ evolve.IslandSpec) (*evolve.IslandRun, error) { return req.Run(ctx) }
	}
	run, out, err := islandTier.get(&job)
	if err != nil {
		return nil, err
	}
	return &IslandOutcome{Run: run, Computed: out.Computed, Stored: out.Stored}, nil
}

// islandSpec maps an island key onto the evolve-layer tuple.
func islandSpec(key store.Key) evolve.IslandSpec {
	return evolve.IslandSpec{Workload: key.Workload, Population: key.Population, Generations: key.Generations,
		Islands: key.Islands, MigrationEvery: key.MigrationEvery, Seed: key.Seed}
}

// islandTier caches island-model runs. Island runners never stream
// live, so a computed run and a hit render the identical replay.
var islandTier = tier[*evolve.IslandRun]{
	check: func(key store.Key) error { return islandSpec(key).Validate() },
	compute: func(key store.Key, req *JobRequest) (*evolve.IslandRun, bool, error) {
		spec := islandSpec(key)
		spec.Parallelism = req.Parallelism
		spec.Phases = req.Phases
		run := evolve.RunIslands
		if req.RunIslands != nil {
			run = req.RunIslands
		}
		evolutionsRun.Add(1)
		r, err := run(req.ctx(), spec)
		return r, false, err
	},
	encode: func(_ store.Key, run *evolve.IslandRun) (map[string][]byte, error) {
		return encodeDoc(islandsFile, islandSchema, run)
	},
	decode: func(key store.Key, art *store.Artifact) (*evolve.IslandRun, error) {
		run, err := decodeDoc[*evolve.IslandRun](art, islandsFile, islandSchema)
		if err == nil && (run == nil || run.Seed != key.Seed || run.Islands != key.Islands) {
			err = errors.New("islands.json does not match its key")
		}
		return run, err
	},
	records: func(_ store.Key, run *evolve.IslandRun, sink hwsim.Sink, _ bool) {
		evolve.ReplayIslandRecords(run, sink)
	},
	summary: islandSummary,
}

// islandSummary reports the run's outcome: its best fitness is the
// best generation's in any island's history, as for a scalar run, and
// its generation count is the longest island history.
func islandSummary(run *evolve.IslandRun) (bool, float64, int) {
	var best float64
	gens := 0
	for i, ir := range run.Results {
		if b := bestFitness(ir.History); i == 0 || b > best {
			best = b
		}
		gens = max(gens, len(ir.History))
	}
	return run.Solved, best, gens
}
