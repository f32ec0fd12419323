package evolve

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/env"
	"repro/internal/neat"
	"repro/internal/network"
	"repro/internal/vmath"
)

// evaluateReference is the executable specification of
// EvaluateGeneration: every genome compiled afresh, without the
// phenotype cache, and run over all of its episodes one after another
// on one environment. The batch engine must reproduce its fitness bits
// and work ledgers exactly.
func evaluateReference(r *Runner) (envSteps, macs, updates int64, err error) {
	e, err := env.New(r.Workload.EnvName)
	if err != nil {
		return 0, 0, 0, err
	}
	var b network.Builder
	for _, g := range r.Pop.Genomes {
		net, err := b.Build(g)
		if err != nil {
			return 0, 0, 0, err
		}
		res := r.runEpisodes(net, e, g)
		if res.err != nil {
			return 0, 0, 0, res.err
		}
		g.Fitness = res.fitness
		envSteps += res.steps
		macs += res.macs
		updates += res.updates
	}
	return envSteps, macs, updates, nil
}

// runReference is Run, without checkpoints, with evaluateReference in
// place of the batch engine.
func runReference(r *Runner, maxGenerations int) (bool, error) {
	for r.Pop.Generation < maxGenerations {
		envSteps, macs, updates, err := evaluateReference(r)
		if err != nil {
			return false, err
		}
		st, err := r.finishGeneration(envSteps, macs, updates, 0)
		if err != nil {
			return false, err
		}
		if st.Solved {
			return true, nil
		}
	}
	return false, nil
}

// evolveGens runs a fresh runner for the workload up to gens
// generations and returns it with its History filled. configure is
// applied before the first step (batchWidth/Parallelism knobs); a nil
// configure evolves through runReference instead of the batch engine.
func evolveGens(t *testing.T, workload string, seed uint64, pop, gens int, configure func(*Runner)) *Runner {
	t.Helper()
	cfg := neat.DefaultConfig(0, 0)
	cfg.PopulationSize = pop
	r, err := NewRunner(workload, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	run := runReference
	if configure != nil {
		configure(r)
		run = func(r *Runner, gens int) (bool, error) { return r.Run(context.Background(), gens) }
	}
	if _, err := run(r, gens); err != nil {
		t.Fatal(err)
	}
	return r
}

// compareRuns bit-compares two evolution trajectories: every
// per-generation stat (fitness as raw float bits, work ledgers as
// exact integers) and the final population's per-genome fitness. Any
// float deviation in evaluation compounds through reproduction, so
// equality over multiple generations pins the batch engine to the
// reference semantics transitively.
func compareRuns(t *testing.T, want, got *Runner, label string) {
	t.Helper()
	if len(want.History) != len(got.History) {
		t.Fatalf("%s: history length %d != %d", label, len(got.History), len(want.History))
	}
	for i := range want.History {
		a, b := want.History[i], got.History[i]
		if math.Float64bits(a.MaxFitness) != math.Float64bits(b.MaxFitness) ||
			math.Float64bits(a.MeanFitness) != math.Float64bits(b.MeanFitness) {
			t.Fatalf("%s: gen %d fitness diverged: reference max=%v mean=%v, batch max=%v mean=%v",
				label, i, a.MaxFitness, a.MeanFitness, b.MaxFitness, b.MeanFitness)
		}
		if a.EnvSteps != b.EnvSteps || a.InferenceMACs != b.InferenceMACs || a.VertexUpdates != b.VertexUpdates {
			t.Fatalf("%s: gen %d work ledger diverged: reference %d/%d/%d, batch %d/%d/%d",
				label, i, a.EnvSteps, a.InferenceMACs, a.VertexUpdates, b.EnvSteps, b.InferenceMACs, b.VertexUpdates)
		}
		if a.TotalGenes != b.TotalGenes || a.NumSpecies != b.NumSpecies ||
			a.CrossoverOps != b.CrossoverOps || a.MutationOps != b.MutationOps {
			t.Fatalf("%s: gen %d reproduction diverged: %+v vs %+v", label, i, a, b)
		}
	}
	if len(want.Pop.Genomes) != len(got.Pop.Genomes) {
		t.Fatalf("%s: population size %d != %d", label, len(got.Pop.Genomes), len(want.Pop.Genomes))
	}
	for i := range want.Pop.Genomes {
		fa, fb := want.Pop.Genomes[i].Fitness, got.Pop.Genomes[i].Fitness
		if math.Float64bits(fa) != math.Float64bits(fb) {
			t.Fatalf("%s: genome %d fitness %v != reference %v", label, i, fb, fa)
		}
	}
}

// TestBatchMatchesScalarAllWorkloads is the tentpole's differential
// acceptance test: for every registered workload, several generations
// of randomized NEAT genomes evaluated by the batch engine must equal
// the serial reference bit for bit — fitness, PRNG-driven
// reproduction, and work ledgers. A narrow batch width forces lane
// backfill and swap-retire on every generation. Each workload's
// "scalar-path" subtest runs the batch engine again with the vector
// kernels off, as on a host without AVX2+FMA.
func TestBatchMatchesScalarAllWorkloads(t *testing.T) {
	for _, name := range WorkloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			ref := evolveGens(t, name, 97, 20, 2, nil)
			batch := evolveGens(t, name, 97, 20, 2, func(r *Runner) { r.batchWidth = 6 })
			compareRuns(t, ref, batch, name)
			t.Run("scalar-path", func(t *testing.T) {
				saved := vmath.HaveVec
				vmath.HaveVec = false
				defer func() { vmath.HaveVec = saved }()
				batch := evolveGens(t, name, 97, 20, 2, func(r *Runner) { r.batchWidth = 6 })
				compareRuns(t, ref, batch, name+"/scalar-path")
			})
		})
	}
}

// TestBatchWidthInvariance pins schedule independence: any lane width
// (including degenerate width 1 and a width larger than the unit
// count) produces the identical trajectory, because episode seeds
// depend only on (runner seed, generation, genome, episode).
func TestBatchWidthInvariance(t *testing.T) {
	ref := evolveGens(t, "cartpole", 11, 18, 3, nil)
	for _, width := range []int{1, 2, 5, 256} {
		batch := evolveGens(t, "cartpole", 11, 18, 3, func(r *Runner) { r.batchWidth = width })
		compareRuns(t, ref, batch, "cartpole/width")
	}
}

// TestBatchParallelMatchesSerial pins the multi-worker batch dispatch
// (chunked jobs over the worker pool) to the same bit-exact result.
// alien-ram drives the per-episode jobs through that dispatch: past
// its first generation nearly every topology group is a singleton, too
// small to batch, while cartpole's three-episode groups always batch.
func TestBatchParallelMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range []struct {
		workload string
		seed     uint64
	}{{"cartpole", 3}, {"cartpole", 29}, {"alien-ram", 3}} {
		ref := evolveGens(t, c.workload, c.seed, 24, 3, nil)
		par := evolveGens(t, c.workload, c.seed, 24, 3, func(r *Runner) {
			r.Parallelism = 3
			r.batchWidth = 4
		})
		compareRuns(t, ref, par, c.workload+"/parallel")
		if c.workload == "alien-ram" && !slices.ContainsFunc(par.jobScratch, func(jb batchJob) bool { return jb.group < 0 }) {
			t.Fatal("alien-ram: last generation dispatched no per-episode jobs")
		}
	}
}
