package evolve

import (
	"context"
	"fmt"

	"repro/internal/gene"
	"repro/internal/hw/energy"
	"repro/internal/hw/hwsim"
	"repro/internal/moea"
	"repro/internal/neat"
)

// This file is the Pareto (multi-objective) run mode: instead of
// selecting on a single scalar fitness, each generation is ranked by
// the NSGA-II machinery of internal/moea over a pluggable objective
// vector, and the run's product is a Pareto front rather than a single
// champion. The design rules that keep it deterministic mirror the
// island model above:
//
//  1. Objective values are pure functions of (evaluated genome): the
//     task fitness the evaluator just assigned, the genome's gene
//     count, and a structural energy price from the Default15nm
//     technology constants. Nothing host- or schedule-dependent enters
//     the vector, so Parallelism remains execution-shape.
//  2. The NSGA-II assignment is serial with a strict total order
//     (rank, then crowding, then genome ID — see package moea), and
//     selection pressure is applied by re-writing each genome's
//     scalar fitness from its position in that order. NEAT
//     reproduction then follows the multi-objective order exactly,
//     with no changes to the epoch kernel.
//  3. Front genomes cross layer boundaries only as binary genome
//     records (ParetoPoint.Genome holds one), like island champions,
//     so stored artifacts replay byte-identically.

// paretoObjective couples a moea axis with its genome pricing
// function, evaluated post-fitness-assignment.
type paretoObjective struct {
	obj   moea.Objective
	value func(*gene.Genome) float64
}

// paretoObjectives is the registry of supported objective axes.
var paretoObjectives = map[string]paretoObjective{
	"fitness": {
		obj:   moea.Objective{Name: "fitness", Maximize: true},
		value: func(g *gene.Genome) float64 { return g.Fitness },
	},
	"genes": {
		obj:   moea.Objective{Name: "genes"},
		value: func(g *gene.Genome) float64 { return float64(g.NumGenes()) },
	},
	"energy": {
		obj:   moea.Objective{Name: "energy"},
		value: GenomeEnergyPJ,
	},
}

// DefaultParetoObjectives is the canonical three-axis vector, which
// is every supported axis in canonical order: task fitness up, genome
// complexity down, simulated chip energy down.
func DefaultParetoObjectives() []string { return []string{"fitness", "genes", "energy"} }

// ResolveObjectives validates a requested objective vector (known
// names, no duplicates, at least two axes — one axis is the scalar
// path) and returns the moea descriptors in request order. Request
// order is part of the run identity: it fixes the lexicographic
// pre-sort and the crowding accumulation order.
func ResolveObjectives(names []string) ([]moea.Objective, error) {
	if len(names) < 2 {
		return nil, fmt.Errorf("pareto: need at least 2 objectives, have %d", len(names))
	}
	out := make([]moea.Objective, 0, len(names))
	seen := map[string]bool{}
	for _, n := range names {
		def, ok := paretoObjectives[n]
		if !ok {
			return nil, fmt.Errorf("pareto: unknown objective %q (have %v)", n, DefaultParetoObjectives())
		}
		if seen[n] {
			return nil, fmt.Errorf("pareto: duplicate objective %q", n)
		}
		seen[n] = true
		out = append(out, def.obj)
	}
	return out, nil
}

// GenomeEnergyPJ prices a genome's simulated per-step chip cost in
// picojoules from the Default15nm technology constants — a pure
// structural function (no step counts, no wall clock), so Pareto runs
// stay deterministic: every enabled connection costs one systolic MAC
// plus one NoC hop, and every gene costs one 64-bit SRAM fetch plus
// one EvE pipeline operation per reproduction pass.
func GenomeEnergyPJ(g *gene.Genome) float64 {
	tech := energy.Default15nm()
	enabled := 0
	for _, c := range g.Conns {
		if c.Enabled {
			enabled++
		}
	}
	genes := float64(g.NumGenes())
	return float64(enabled)*(tech.EMAC+tech.ENoCHop) + genes*(tech.ESRAMAccess+tech.EEvEOp)
}

// ParetoPoint is one member of a Pareto front in wire form: the
// genome's objective values, its crowding distance within the front,
// and the genome itself as its binary record (exact float64 round
// trip, like island Champions), base64 inside JSON.
type ParetoPoint struct {
	GenomeID int64              `json:"genome_id"`
	Values   map[string]float64 `json:"values"`
	Crowding float64            `json:"crowding"`
	Genome   []byte             `json:"genome,omitempty"`
}

// applyPareto runs the NSGA-II assignment over the just-evaluated
// population: snapshots the rank-0 front (in total order) and, when
// the task is not yet solved, rewrites each genome's scalar fitness
// from its position in the total order so the NEAT epoch reproduces
// along the multi-objective ranking. Called by Step between stats
// collection (task fitness) and reproduction.
func (r *Runner) applyPareto(shape bool) error {
	objs, err := ResolveObjectives(r.Objectives)
	if err != nil {
		return err
	}
	genomes := r.Pop.Genomes
	points := make([]moea.Point, len(genomes))
	for i, g := range genomes {
		vals := make([]float64, len(r.Objectives))
		for m, name := range r.Objectives {
			vals[m] = paretoObjectives[name].value(g)
		}
		points[i] = moea.Point{ID: g.ID, Values: vals}
	}
	if err := moea.Validate(points, objs); err != nil {
		return err
	}
	res := moea.Sort(points, objs)

	front := make([]ParetoPoint, 0, len(res.Fronts[0]))
	for _, i := range res.Fronts[0] {
		rec, merr := genomes[i].AppendRecord(make([]byte, 0, genomes[i].RecordSize()))
		if merr != nil {
			return fmt.Errorf("pareto: encode front genome %d: %w", genomes[i].ID, merr)
		}
		vals := make(map[string]float64, len(r.Objectives))
		for m, name := range r.Objectives {
			vals[name] = points[i].Values[m]
		}
		front = append(front, ParetoPoint{
			GenomeID: genomes[i].ID,
			Values:   vals,
			Crowding: res.Crowding[i],
			Genome:   rec,
		})
	}
	r.front = front

	if shape {
		n := len(res.Order)
		for pos, i := range res.Order {
			genomes[i].Fitness = float64(n - pos)
		}
	}
	return nil
}

// Front returns the Pareto front of the most recently evaluated
// generation (nil outside Pareto mode). Points are in the moea total
// order; the slice is owned by the runner and replaced every Step.
func (r *Runner) Front() []ParetoPoint { return r.front }

// ParetoSpec describes one Pareto-mode run. The identity tuple is
// (workload, population, generations, seed, objectives — order
// included); Parallelism is execution-shape only.
type ParetoSpec struct {
	Workload    string
	Population  int
	Generations int
	Seed        uint64
	// Objectives is the objective vector in identity order; see
	// ResolveObjectives.
	Objectives []string

	Parallelism int
	// Phases, when set, receives the runner's per-phase wall-clock
	// counters (see Runner.Phases) — live metrics only, never part of
	// the result.
	Phases *hwsim.Counters
	// Sink, when set, receives the live per-generation record stream
	// (task-fitness GenStats, exactly as a scalar run emits them).
	// Front records are not emitted here; see FrontRecords.
	Sink hwsim.Sink
}

// Validate reports spec errors before any population is built.
func (s ParetoSpec) Validate() error {
	switch {
	case s.Population < 2 || s.Population > neat.MaxPopulationSize:
		return fmt.Errorf("pareto: population %d outside [2, %d]", s.Population, neat.MaxPopulationSize)
	case s.Generations < 1:
		return fmt.Errorf("pareto: generations %d must be positive", s.Generations)
	}
	if _, err := WorkloadByName(s.Workload); err != nil {
		return err
	}
	if _, err := ResolveObjectives(s.Objectives); err != nil {
		return err
	}
	return nil
}

// ParetoRun is the assembled result of a Pareto-mode run — what the
// store persists and the differential tests compare byte-for-byte.
// Front holds the rank-0 points of the final evaluated generation in
// total order.
type ParetoRun struct {
	Workload    string        `json:"workload"`
	Population  int           `json:"population"`
	Generations int           `json:"generations"`
	Seed        uint64        `json:"seed"`
	Objectives  []string      `json:"objectives"`
	Solved      bool          `json:"solved"`
	BestFitness float64       `json:"best_fitness"`
	History     []GenStats    `json:"history"`
	Front       []ParetoPoint `json:"front"`
}

// newParetoRunner builds the Runner for a validated spec: an ordinary
// scalar runner plus the Objectives vector and execution-shape knobs.
func newParetoRunner(spec ParetoSpec) (*Runner, error) {
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = spec.Population
	r, err := NewRunner(spec.Workload, cfg, spec.Seed)
	if err != nil {
		return nil, err
	}
	r.Objectives = append([]string(nil), spec.Objectives...)
	r.Parallelism = spec.Parallelism
	r.Phases = spec.Phases
	r.Sink = spec.Sink
	return r, nil
}

// RunPareto executes one Pareto-mode evolution in-process: an
// ordinary Runner with Objectives set, run to the generation budget or
// the task target, returning the history plus the final front. The
// whole run is a pure function of the spec's identity tuple.
func RunPareto(ctx context.Context, spec ParetoSpec) (*ParetoRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r, err := newParetoRunner(spec)
	if err != nil {
		return nil, err
	}
	solved, err := r.Run(ctx, spec.Generations)
	if err != nil {
		return nil, err
	}
	last := r.Last()
	run := &ParetoRun{
		Workload:    spec.Workload,
		Population:  spec.Population,
		Generations: spec.Generations,
		Seed:        spec.Seed,
		Objectives:  append([]string(nil), spec.Objectives...),
		Solved:      solved,
		BestFitness: last.MaxFitness,
		History:     r.History,
		Front:       r.Front(),
	}
	r.ReleaseEvalState()
	return run, nil
}

// FrontRecords streams the run's front as hwsim records tagged
// "workload#front": one record per point, Generation continuing
// monotonically after the history (len(History)+index) so failover
// dedup by generation keeps working across the whole stream. The
// report carries the objective values and crowding as floats and the
// genome ID as an int.
func FrontRecords(run *ParetoRun, sink hwsim.Sink) {
	if sink == nil {
		return
	}
	for i, p := range run.Front {
		floats := make(map[string]float64, len(p.Values)+1)
		for k, v := range p.Values {
			floats[k] = v
		}
		floats["crowding"] = p.Crowding
		sink.Record(hwsim.Record{
			Workload:   run.Workload + "#front",
			Generation: len(run.History) + i,
			Report: hwsim.Report{
				Name:   "front",
				Ints:   map[string]int64{"genome_id": p.GenomeID, "point": int64(i)},
				Floats: floats,
			},
		})
	}
}

// ReplayParetoRecords re-emits the complete record stream of a
// finished Pareto run — the per-generation history followed by the
// front — in exactly the order a live run produces it, so cache-hit
// replays are byte-identical on the wire.
func ReplayParetoRecords(run *ParetoRun, sink hwsim.Sink) {
	if sink == nil {
		return
	}
	for _, st := range run.History {
		sink.Record(hwsim.Record{
			Workload:   run.Workload,
			Generation: st.Generation,
			Report:     st.CounterReport(),
		})
	}
	FrontRecords(run, sink)
}
