package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/evolve"
	"repro/internal/hw/hwsim"
	"repro/internal/moea"
	"repro/internal/store"
)

// This file is the Pareto (multi-objective) run kind over the shared
// tier — keys carry the objective vector, the store artifact is one
// pareto.json whose front genomes are binary genome records — and the
// Pareto-front figure generator over the existing workloads.

// paretoSchema stamps pareto.json artifacts. /2 holds front genomes as
// base64 genome records where /1 held JSON genome objects.
const paretoSchema = "genesys-pareto/2"

const paretoFile = "pareto.json"

// ParetoRequest describes one Pareto-mode run to resolve through the
// shared cache. The tuple (Workload, Population, Generations, Seed,
// Objectives — order included) is the identity; the rest shapes
// execution.
type ParetoRequest struct {
	Workload    string
	Population  int
	Generations int
	Seed        uint64
	Objectives  []string

	// Ctx cancels a cache-miss computation; nil means Background.
	Ctx context.Context
	// Parallelism shapes the runner's evaluation.
	Parallelism int
	// Phases, when set, receives the runner's live per-phase wall-clock
	// counters on a cache-miss computation (metrics only, never stored).
	Phases *hwsim.Counters
	// Sink, when set, receives the live per-generation record stream of
	// a cache-miss computation (replays come from the returned run).
	Sink hwsim.Sink
}

// ParetoOutcome is the result of a shared Pareto request.
type ParetoOutcome struct {
	Run *evolve.ParetoRun
	// Computed is true only for the request whose computation executed.
	Computed bool
	// Stored reports the cache miss was served from the persistent
	// store (no computation ran).
	Stored bool
}

// JoinObjectives renders an objective vector in the canonical '+'
// form used by store keys and the wire ("fitness+genes+energy").
func JoinObjectives(names []string) string { return strings.Join(names, "+") }

// SplitObjectives parses the canonical '+' form back to a vector.
func SplitObjectives(joined string) []string {
	if joined == "" {
		return nil
	}
	return strings.Split(joined, "+")
}

// RunSharedPareto resolves one Pareto-mode run through the package's
// singleflight cache and the persistent store, computing on a cold
// miss via evolve.RunPareto.
func RunSharedPareto(req ParetoRequest) (*ParetoOutcome, error) {
	run, out, err := paretoTier.get(&JobRequest{
		Key: store.Key{Workload: req.Workload, Population: req.Population, Generations: req.Generations,
			Seed: req.Seed, Objectives: JoinObjectives(req.Objectives)},
		Ctx:         req.Ctx,
		Sink:        req.Sink,
		Parallelism: req.Parallelism,
		Phases:      req.Phases,
	})
	if err != nil {
		return nil, err
	}
	return &ParetoOutcome{Run: run, Computed: out.Computed, Stored: out.Stored}, nil
}

// paretoSpec maps a Pareto key onto the evolve-layer tuple.
func paretoSpec(key store.Key) evolve.ParetoSpec {
	return evolve.ParetoSpec{Workload: key.Workload, Population: key.Population, Generations: key.Generations,
		Seed: key.Seed, Objectives: SplitObjectives(key.Objectives)}
}

// paretoTier caches Pareto runs. A computing request streams the
// history live and gets the front records appended; a hit replays
// both, so subscribers cannot tell the two apart.
var paretoTier = tier[*evolve.ParetoRun]{
	check: func(key store.Key) error { return paretoSpec(key).Validate() },
	compute: func(key store.Key, req *JobRequest) (*evolve.ParetoRun, bool, error) {
		spec := paretoSpec(key)
		spec.Parallelism = req.Parallelism
		spec.Phases = req.Phases
		spec.Sink = req.Sink
		evolutionsRun.Add(1)
		run, err := evolve.RunPareto(req.ctx(), spec)
		return run, false, err
	},
	encode: func(_ store.Key, run *evolve.ParetoRun) (map[string][]byte, error) {
		return encodeDoc(paretoFile, paretoSchema, run)
	},
	decode: func(key store.Key, art *store.Artifact) (*evolve.ParetoRun, error) {
		run, err := decodeDoc[*evolve.ParetoRun](art, paretoFile, paretoSchema)
		if err == nil && (run == nil || run.Seed != key.Seed || JoinObjectives(run.Objectives) != key.Objectives) {
			err = errors.New("pareto.json does not match its key")
		}
		return run, err
	},
	records: func(_ store.Key, run *evolve.ParetoRun, sink hwsim.Sink, live bool) {
		if live {
			evolve.FrontRecords(run, sink)
		} else {
			evolve.ReplayParetoRecords(run, sink)
		}
	},
	// The job's best is the best generation's, as for a scalar run.
	summary: func(run *evolve.ParetoRun) (bool, float64, int) {
		return run.Solved, bestFitness(run.History), len(run.History)
	},
}

// --- the Pareto-front figure ---

func init() {
	register("pareto", ParetoFront)
}

// ParetoFront is the multi-objective experiment over the classic
// control suite: each workload evolves under NSGA-II selection with
// the canonical three-axis vector (task fitness up, genome size down,
// structural chip energy down) and the figure reports the resulting
// Pareto fronts — the accuracy/complexity/energy trade-off surface a
// scalar run collapses to a single champion.
func ParetoFront(opt Options) (*Result, error) {
	res := &Result{ID: "pareto", Title: "Pareto fronts: fitness vs genome size vs chip energy (NSGA-II)"}
	objectives := evolve.DefaultParetoObjectives()
	for _, wl := range evolve.ControlSuite() {
		out, err := RunSharedPareto(ParetoRequest{
			Workload:    wl,
			Population:  opt.popFor(wl),
			Generations: opt.gensFor(wl),
			Seed:        opt.Seed,
			Objectives:  objectives,
			Ctx:         opt.Ctx,
			Parallelism: opt.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		run := out.Run
		t := Table{
			Title:  fmt.Sprintf("%s front (pop %d, %d generations, objectives %s)", wl, run.Population, len(run.History), JoinObjectives(run.Objectives)),
			Header: []string{"genome", "fitness", "genes", "energy_pJ", "crowding"},
		}
		best := bestFitness(run.History)
		minEnergy, maxFit := 0.0, 0.0
		for i, p := range run.Front {
			crowd := "boundary"
			if p.Crowding != moea.CrowdingMax {
				crowd = fnum(p.Crowding)
			}
			t.Rows = append(t.Rows, []string{
				inum(p.GenomeID),
				fnum(p.Values["fitness"]),
				inum(int(p.Values["genes"])),
				fnum(p.Values["energy"]),
				crowd,
			})
			if i == 0 || p.Values["energy"] < minEnergy {
				minEnergy = p.Values["energy"]
			}
			if i == 0 || p.Values["fitness"] > maxFit {
				maxFit = p.Values["fitness"]
			}
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("front size %d of population %d; best task fitness %s; cheapest front genome %s pJ",
				len(run.Front), run.Population, fnum(best), fnum(minEnergy)))
		res.Tables = append(res.Tables, t)
		res.series(wl+":frontSize", float64(len(run.Front)))
		res.series(wl+":bestFitness", best)
		res.series(wl+":frontMaxFitness", maxFit)
		res.series(wl+":frontMinEnergy", minEnergy)
		res.series(wl+":generations", float64(len(run.History)))
	}
	return res, nil
}
