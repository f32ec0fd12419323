package evolve

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/gene"
	"repro/internal/hw/hwsim"
	"repro/internal/neat"
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
//  2. Champions cross island boundaries only as JSON (Champion.Genome
//     is a json.RawMessage). The single-process reference round-trips
//     through the same encoding the worker RPC uses; Go's float64 JSON
//     round-trip is exact, so both paths inject identical genomes.

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
	x := (base ^ 0x9E6C63D0876A9A35) + 0x9E3779B97F4A7C15*uint64(island+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Champion is an island's exported best genome at a migration barrier,
// in wire form. The genome stays encoded until injection so the
// single-process reference and the worker RPC inject bit-identical
// values (see the package comment above).
type Champion struct {
	Island  int             `json:"island"`
	Fitness float64         `json:"fitness"`
	Genome  json.RawMessage `json:"genome"`
}

// MigrationPlan computes the ring migration for one barrier: island i
// imports the champion of island (i-1+n) mod n. Every island must be
// represented in champs exactly once.
func MigrationPlan(champs []Champion, islands int) (map[int]Champion, error) {
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
	Island      int             `json:"island"`
	Seed        uint64          `json:"seed"`
	Solved      bool            `json:"solved"`
	BestFitness float64         `json:"best_fitness"`
	History     []GenStats      `json:"history"`
	Champion    json.RawMessage `json:"champion,omitempty"`
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

// AssembleRun builds the canonical IslandRun from per-island results
// (any order; sorted by island here). Both the single-process reference
// and the coordinator gathering results from workers assemble through
// this one function.
func AssembleRun(spec IslandSpec, results []IslandResult) *IslandRun {
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

// Step advances every island in the group to the target generation (a
// migration barrier or the final budget) and exports their champions.
// solved reports whether any island in the group reached its workload
// target during this segment.
func (g *IslandGroup) Step(ctx context.Context, target int) (champs []Champion, solved bool, err error) {
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
		raw, merr := json.Marshal(ch)
		if merr != nil {
			return nil, false, fmt.Errorf("island %d: encode champion: %w", g.Islands[k], merr)
		}
		champs = append(champs, Champion{Island: g.Islands[k], Fitness: ch.Fitness, Genome: raw})
	}
	return champs, solved, nil
}

// Inject applies a migration plan to the group's islands: each local
// island receives the plan's champion addressed to it, decoded from
// wire form.
func (g *IslandGroup) Inject(plan map[int]Champion) error {
	for k, r := range g.Runners {
		c, ok := plan[g.Islands[k]]
		if !ok {
			return fmt.Errorf("island %d: no migrant in plan", g.Islands[k])
		}
		var migrant gene.Genome
		if err := json.Unmarshal(c.Genome, &migrant); err != nil {
			return fmt.Errorf("island %d: decode migrant: %w", g.Islands[k], err)
		}
		r.Pop.ReceiveMigrant(&migrant)
	}
	return nil
}

// Results exports every island's outcome and releases the runners'
// evaluation engines (a finished group is read-only).
func (g *IslandGroup) Results() []IslandResult {
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
			if raw, err := json.Marshal(ch); err == nil {
				ir.Champion = raw
			}
		}
		out = append(out, ir)
		r.ReleaseEvalState()
	}
	return out
}

// RunIslands is the single-process island-model reference: all islands
// in one group, segment loop with ring migration at every barrier,
// stopping at the first barrier where any island solved (champions are
// not injected after the final segment). The distributed coordinator
// replicates exactly this loop over worker RPCs; the differential test
// pins the two byte-identical.
func RunIslands(ctx context.Context, spec IslandSpec) (*IslandRun, error) {
	all := make([]int, spec.Islands)
	for i := range all {
		all[i] = i
	}
	g, err := NewIslandGroup(spec, all)
	if err != nil {
		return nil, err
	}
	for target := min(spec.MigrationEvery, spec.Generations); ; {
		champs, solved, err := g.Step(ctx, target)
		if err != nil {
			return nil, err
		}
		if solved || target >= spec.Generations {
			break
		}
		plan, err := MigrationPlan(champs, spec.Islands)
		if err != nil {
			return nil, err
		}
		if err := g.Inject(plan); err != nil {
			return nil, err
		}
		target = min(target+spec.MigrationEvery, spec.Generations)
	}
	return AssembleRun(spec, g.Results()), nil
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
