package evolve

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/gene"
	"repro/internal/hw/hwsim"
	"repro/internal/neat"
	"repro/internal/network"
	"repro/internal/rng"
)

// This file is the island model: a population split into independent
// sub-populations ("islands") that evolve in isolation and exchange
// champions on a fixed migration schedule. It is the population-level
// parallelism the paper's EvE PE array performs inside one chip, lifted
// to the level where islands can live on different worker processes —
// the whole run is a pure function of (workload, population,
// generations, islands, migrationEvery, seed), so a single-process
// reference and a fleet spreading islands across workers produce
// byte-identical results. Two design rules buy that property:
//
//  1. Each island is an ordinary Runner seeded by IslandSeed(seed, i).
//     Islands never share PRNG state, genome-ID streams, or caches, so
//     where an island executes cannot matter.
//  2. Champions cross island boundaries only as binary genome records
//     (Champion.Genome holds one). The single-process reference
//     round-trips through the same encoding the worker RPC uses, and a
//     record keeps every float64 bit for bit, so both paths inject
//     identical genomes.

// IslandSpec describes one island-model run. The full tuple is the
// identity: two specs differing only in Parallelism (the
// execution-shape knob) produce byte-identical results.
type IslandSpec struct {
	Workload string
	// Population is the total genome count, split evenly across
	// islands; it must be divisible by Islands.
	Population  int
	Generations int
	// Islands is the sub-population count (≥ 2).
	Islands int
	// MigrationEvery is the migration period in generations: islands
	// evolve independently for MigrationEvery generations, then each
	// island imports its ring-predecessor's champion.
	MigrationEvery int
	Seed           uint64

	// Parallelism shapes each island runner's evaluation (see Runner);
	// it does not affect results.
	Parallelism int

	// Phases, when set, receives every island runner's per-phase
	// wall-clock counters (see Runner.Phases). Metrics only — never
	// serialized, never part of the run's identity or results.
	Phases *hwsim.Counters `json:"-"`
}

// Validate reports spec errors before any island is built.
func (s IslandSpec) Validate() error {
	switch {
	case s.Islands < 2:
		return fmt.Errorf("island: need at least 2 islands, have %d", s.Islands)
	case s.Population < s.Islands:
		return fmt.Errorf("island: population %d smaller than island count %d", s.Population, s.Islands)
	case s.Population > neat.MaxPopulationSize:
		return fmt.Errorf("island: population %d above the bound %d", s.Population, neat.MaxPopulationSize)
	case s.Population%s.Islands != 0:
		return fmt.Errorf("island: population %d not divisible by %d islands", s.Population, s.Islands)
	case s.Generations < 1:
		return fmt.Errorf("island: generations %d must be positive", s.Generations)
	case s.MigrationEvery < 1:
		return fmt.Errorf("island: migrationEvery %d must be positive", s.MigrationEvery)
	}
	if _, err := WorkloadByName(s.Workload); err != nil {
		return err
	}
	return nil
}

// IslandSeed derives island i's runner seed from the run's base seed —
// the same splitmix64 finalizer as RunSeed but salted onto a different
// stream, so island seeds never collide with study per-run seeds
// derived from the same base.
func IslandSeed(base uint64, island int) uint64 {
	return rng.Mix64((base ^ 0x9E6C63D0876A9A35) + 0x9E3779B97F4A7C15*uint64(island+1))
}

// Champion is an island's exported best genome at a migration barrier,
// in wire form: Genome is its binary record (gene.AppendRecord),
// base64 inside JSON. The genome stays encoded until injection so the
// single-process reference and the worker RPC inject bit-identical
// values (see the package comment above).
type Champion struct {
	Island  int     `json:"island"`
	Fitness float64 `json:"fitness"`
	Genome  []byte  `json:"genome"`
}

// migrationPlan computes the ring migration for one barrier: island i
// imports the champion of island (i-1+n) mod n. Every island must be
// represented in champs exactly once.
func migrationPlan(champs []Champion, islands int) (map[int]Champion, error) {
	byIsland := make(map[int]Champion, len(champs))
	for _, c := range champs {
		if c.Island < 0 || c.Island >= islands {
			return nil, fmt.Errorf("island: champion for out-of-range island %d", c.Island)
		}
		if _, dup := byIsland[c.Island]; dup {
			return nil, fmt.Errorf("island: duplicate champion for island %d", c.Island)
		}
		byIsland[c.Island] = c
	}
	if len(byIsland) != islands {
		return nil, fmt.Errorf("island: have champions for %d of %d islands", len(byIsland), islands)
	}
	plan := make(map[int]Champion, islands)
	for dest := 0; dest < islands; dest++ {
		plan[dest] = byIsland[(dest-1+islands)%islands]
	}
	return plan, nil
}

// IslandResult is one island's complete outcome: its per-generation
// history (the stats stream), final champion, and solved flag.
type IslandResult struct {
	Island      int        `json:"island"`
	Seed        uint64     `json:"seed"`
	Solved      bool       `json:"solved"`
	BestFitness float64    `json:"best_fitness"`
	History     []GenStats `json:"history"`
	// Champion is the final champion's binary genome record.
	Champion []byte `json:"champion,omitempty"`
}

// IslandRun is the assembled result of an island-model run — what the
// store persists and the differential tests compare byte-for-byte.
type IslandRun struct {
	Workload       string         `json:"workload"`
	Population     int            `json:"population"`
	Generations    int            `json:"generations"`
	Islands        int            `json:"islands"`
	MigrationEvery int            `json:"migration_every"`
	Seed           uint64         `json:"seed"`
	Solved         bool           `json:"solved"`
	BestFitness    float64        `json:"best_fitness"`
	BestIsland     int            `json:"best_island"`
	Results        []IslandResult `json:"results"`
}

// assembleRun builds the canonical IslandRun from per-island results
// (any order; sorted by island here).
func assembleRun(spec IslandSpec, results []IslandResult) *IslandRun {
	sort.Slice(results, func(i, j int) bool { return results[i].Island < results[j].Island })
	run := &IslandRun{
		Workload:       spec.Workload,
		Population:     spec.Population,
		Generations:    spec.Generations,
		Islands:        spec.Islands,
		MigrationEvery: spec.MigrationEvery,
		Seed:           spec.Seed,
		BestIsland:     -1,
		Results:        results,
	}
	for _, ir := range results {
		run.Solved = run.Solved || ir.Solved
		if run.BestIsland < 0 || ir.BestFitness > run.BestFitness {
			run.BestFitness, run.BestIsland = ir.BestFitness, ir.Island
		}
	}
	return run
}

// IslandShard is a set of a run's islands that steps as one: an
// in-process IslandGroup, or a worker's island session. DriveIslands
// runs the segment loop over shards that together hold every island.
type IslandShard interface {
	// Step injects plan's migrants into the shard's islands when plan
	// is not nil, then advances them to the target generation (a
	// migration barrier or the final budget) and exports their
	// champions. solved reports whether any of them reached its
	// workload target during the segment.
	Step(ctx context.Context, target int, plan map[int]Champion) (champs []Champion, solved bool, err error)
	// Results returns the shard's finished islands.
	Results(ctx context.Context) ([]IslandResult, error)
}

// IslandGroup drives a subset of a run's islands inside one process —
// all of them for the single-process reference, a shard of them on a
// worker. Islands within a group step sequentially in ascending island
// order, so a group's work is deterministic regardless of how islands
// were sharded.
type IslandGroup struct {
	Spec    IslandSpec
	Islands []int     // ascending global island indices
	Runners []*Runner // parallel to Islands
}

// NewIslandGroup validates the spec and builds one Runner per listed
// island, each seeded with IslandSeed and tracking its champion.
func NewIslandGroup(spec IslandSpec, islands []int) (*IslandGroup, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(islands) == 0 {
		return nil, fmt.Errorf("island: group needs at least one island")
	}
	islands = append([]int(nil), islands...)
	sort.Ints(islands)
	g := &IslandGroup{Spec: spec, Islands: islands}
	seen := map[int]bool{}
	for _, i := range islands {
		if i < 0 || i >= spec.Islands {
			return nil, fmt.Errorf("island: index %d outside [0,%d)", i, spec.Islands)
		}
		if seen[i] {
			return nil, fmt.Errorf("island: duplicate index %d", i)
		}
		seen[i] = true
		cfg := neat.DefaultConfig(1, 1)
		cfg.PopulationSize = spec.Population / spec.Islands
		r, err := NewRunner(spec.Workload, cfg, IslandSeed(spec.Seed, i))
		if err != nil {
			return nil, err
		}
		r.Parallelism = spec.Parallelism
		r.Phases = spec.Phases
		r.TrackChampion = true
		g.Runners = append(g.Runners, r)
	}
	return g, nil
}

// Step implements IslandShard: Inject when plan is not nil, then run
// every island of the group to target.
func (g *IslandGroup) Step(ctx context.Context, target int, plan map[int]Champion) (champs []Champion, solved bool, err error) {
	if plan != nil {
		if err := g.Inject(plan); err != nil {
			return nil, false, err
		}
	}
	for k, r := range g.Runners {
		s, err := r.Run(ctx, target)
		if err != nil {
			return nil, false, fmt.Errorf("island %d: %w", g.Islands[k], err)
		}
		solved = solved || s
		ch := r.Champion()
		if ch == nil {
			return nil, false, fmt.Errorf("island %d: no champion at generation %d", g.Islands[k], target)
		}
		rec, merr := ch.AppendRecord(make([]byte, 0, ch.RecordSize()))
		if merr != nil {
			return nil, false, fmt.Errorf("island %d: encode champion: %w", g.Islands[k], merr)
		}
		champs = append(champs, Champion{Island: g.Islands[k], Fitness: ch.Fitness, Genome: rec})
	}
	return champs, solved, nil
}

// Inject applies a migration plan to the group's islands: each local
// island receives the plan's champion addressed to it, decoded from
// its record. Every migrant is decoded and checked before any is
// received, so a plan that fails leaves the islands untouched.
func (g *IslandGroup) Inject(plan map[int]Champion) error {
	migrants := make([]*gene.Genome, len(g.Runners))
	for k, island := range g.Islands {
		c, ok := plan[island]
		if !ok {
			return fmt.Errorf("island %d: no migrant in plan", island)
		}
		m, err := gene.DecodeRecord(c.Genome)
		if err == nil {
			err = evaluable(m, g.Runners[k].Pop.Config)
		}
		if err != nil {
			return fmt.Errorf("island %d: migrant: %w", island, err)
		}
		migrants[k] = m
	}
	for k, r := range g.Runners {
		r.Pop.ReceiveMigrant(migrants[k])
	}
	return nil
}

// evaluable reports why a decoded migrant could not be evaluated by a
// population of cfg, if it could not: it must have the workload's
// input and output nodes, and its enabled connections must compile to
// a network, which fails on a cycle. Every champion an island exports
// passes; the check keeps a malformed plan from the wire out of a
// population that would then fail every later step.
func evaluable(m *gene.Genome, cfg neat.Config) error {
	if !slices.Equal(m.InputIDs(), cfg.InputIDs()) || !slices.Equal(m.OutputIDs(), cfg.OutputIDs()) {
		return fmt.Errorf("genome %d: input or output nodes differ from the workload's", m.ID)
	}
	_, err := network.New(m)
	return err
}

// Results implements IslandShard: it exports every island's outcome
// and releases the runners' evaluation engines (a finished group is
// read-only).
func (g *IslandGroup) Results(context.Context) ([]IslandResult, error) {
	var out []IslandResult
	for k, r := range g.Runners {
		last := r.Last()
		ir := IslandResult{
			Island:      g.Islands[k],
			Seed:        IslandSeed(g.Spec.Seed, g.Islands[k]),
			Solved:      last.Solved,
			BestFitness: last.MaxFitness,
			History:     r.History,
		}
		if ch := r.Champion(); ch != nil {
			rec, err := ch.AppendRecord(make([]byte, 0, ch.RecordSize()))
			if err != nil {
				return nil, fmt.Errorf("island %d: encode champion: %w", g.Islands[k], err)
			}
			ir.Champion = rec
		}
		out = append(out, ir)
		r.ReleaseEvalState()
	}
	return out, nil
}

// RunIslands is the single-process island-model reference: all islands
// in one group, driven by DriveIslands — the loop the distributed
// coordinator drives over worker sessions, so the two are
// byte-identical.
func RunIslands(ctx context.Context, spec IslandSpec) (*IslandRun, error) {
	all := make([]int, spec.Islands)
	for i := range all {
		all[i] = i
	}
	g, err := NewIslandGroup(spec, all)
	if err != nil {
		return nil, err
	}
	return DriveIslands(ctx, spec, []IslandShard{g})
}

// DriveIslands is the island model's segment loop over shards that
// together hold every island of spec. It steps all shards concurrently
// to the next migration barrier, computes the ring migration plan from
// their champions and ships it with the next step, and stops at the
// first barrier where any island solved (no migrants are injected
// after the final segment) or at the budget. It then gathers the
// islands' results and assembles the run. When shards fail, the
// lowest-indexed shard's error is returned.
func DriveIslands(ctx context.Context, spec IslandSpec, shards []IslandShard) (*IslandRun, error) {
	champs := make([][]Champion, len(shards))
	solved := make([]bool, len(shards))
	var plan map[int]Champion
	for target := min(spec.MigrationEvery, spec.Generations); ; {
		err := eachShard(shards, func(k int, s IslandShard) (err error) {
			champs[k], solved[k], err = s.Step(ctx, target, plan)
			return err
		})
		if err != nil {
			return nil, err
		}
		if slices.Contains(solved, true) || target >= spec.Generations {
			break
		}
		if plan, err = migrationPlan(slices.Concat(champs...), spec.Islands); err != nil {
			return nil, err
		}
		target = min(target+spec.MigrationEvery, spec.Generations)
	}
	results := make([][]IslandResult, len(shards))
	if err := eachShard(shards, func(k int, s IslandShard) (err error) {
		results[k], err = s.Results(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	all := slices.Concat(results...)
	if len(all) != spec.Islands {
		return nil, fmt.Errorf("island: gathered %d of %d islands", len(all), spec.Islands)
	}
	return assembleRun(spec, all), nil
}

// eachShard calls f once per shard concurrently — shards computing in
// parallel is the fleet's throughput win — and returns the
// lowest-indexed shard's error.
func eachShard(shards []IslandShard, f func(k int, s IslandShard) error) error {
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for k, s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = f(k, s)
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}

// ReplayIslandRecords streams the run's per-generation records in the
// canonical order: segment-major (all islands' generations of segment
// 0, then segment 1, …), island-ascending within a segment — the order
// a coordinator interleaving worker streams and a single process both
// reproduce from the same histories. Records are tagged
// "workload#iN" so consumers can attribute a generation to its island.
func ReplayIslandRecords(run *IslandRun, sink hwsim.Sink) {
	if sink == nil {
		return
	}
	m := run.MigrationEvery
	if m < 1 {
		m = run.Generations
		if m < 1 {
			return
		}
	}
	for start := 0; ; start += m {
		emitted := false
		for _, ir := range run.Results {
			h := ir.History
			for gen := start; gen < start+m && gen < len(h); gen++ {
				sink.Record(hwsim.Record{
					Workload:   fmt.Sprintf("%s#i%d", run.Workload, ir.Island),
					Generation: h[gen].Generation,
					Report:     h[gen].CounterReport(),
				})
				emitted = true
			}
		}
		if !emitted {
			return
		}
	}
}
