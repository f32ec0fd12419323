package evolve

import (
	"context"
	"testing"

	"repro/internal/env"
	"repro/internal/neat"
)

func smallCfg() neat.Config {
	cfg := neat.DefaultConfig(1, 1) // dimensions overwritten by NewRunner
	cfg.PopulationSize = 40
	return cfg
}

func TestWorkloadRegistry(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 10 {
		t.Fatalf("have %d workloads: %v", len(names), names)
	}
	for _, n := range names {
		w, err := WorkloadByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if w.EnvName != n {
			t.Fatalf("workload %q wraps env %q", n, w.EnvName)
		}
		if w.Target <= w.Floor {
			t.Fatalf("workload %q: target %v <= floor %v", n, w.Target, w.Floor)
		}
		if w.Fitness == nil {
			t.Fatalf("workload %q: nil fitness", n)
		}
	}
	if _, err := WorkloadByName("doom"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSuites(t *testing.T) {
	if len(ControlSuite()) != 3 || len(AtariSuite()) != 4 || len(PaperSuite()) != 6 {
		t.Fatalf("suite sizes: %d/%d/%d", len(ControlSuite()), len(AtariSuite()), len(PaperSuite()))
	}
	for _, n := range PaperSuite() {
		if _, err := WorkloadByName(n); err != nil {
			t.Fatalf("paper suite entry %q unknown", n)
		}
	}
}

func TestNormalize(t *testing.T) {
	w, _ := WorkloadByName("lunarlander")
	if got := w.Normalize(w.Target); got != 1 {
		t.Fatalf("Normalize(target) = %v", got)
	}
	if got := w.Normalize(w.Floor); got != 0 {
		t.Fatalf("Normalize(floor) = %v", got)
	}
}

func TestRunnerConfiguresDimensions(t *testing.T) {
	r, err := NewRunner("mountaincar", smallCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pop.Config.NumInputs != 2 || r.Pop.Config.NumOutputs != 3 {
		t.Fatalf("dimensions %d/%d", r.Pop.Config.NumInputs, r.Pop.Config.NumOutputs)
	}
}

func TestStepProducesStats(t *testing.T) {
	r, err := NewRunner("cartpole", smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 0 {
		t.Fatalf("first generation index %d", st.Generation)
	}
	if st.EnvSteps <= 0 || st.InferenceMACs <= 0 || st.VertexUpdates <= 0 {
		t.Fatalf("no inference work recorded: %+v", st)
	}
	if st.TotalGenes <= 0 || st.FootprintBytes != st.TotalGenes*8 {
		t.Fatalf("structure stats wrong: %+v", st)
	}
	if st.MaxFitness < st.MeanFitness {
		t.Fatalf("max %v below mean %v", st.MaxFitness, st.MeanFitness)
	}
	if !st.Solved && (st.CrossoverOps == 0 || st.MutationOps == 0) {
		t.Fatalf("reproduction ops missing: %+v", st)
	}
	if len(r.History) != 1 {
		t.Fatalf("history length %d", len(r.History))
	}
}

func TestFitnessImprovesOnCartPole(t *testing.T) {
	cfg := smallCfg()
	cfg.PopulationSize = 60
	r, err := NewRunner("cartpole", cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := r.History[0].MaxFitness
	solved, err := r.Run(context.Background(), 25)
	if err != nil {
		t.Fatal(err)
	}
	last := r.Last().MaxFitness
	if !solved && last <= first {
		t.Fatalf("no improvement: gen0 max %v, final max %v", first, last)
	}
	t.Logf("cartpole: gen0=%.1f final=%.1f solved=%v gens=%d", first, last, solved, len(r.History))
}

func TestDeterministicEvaluation(t *testing.T) {
	run := func() []float64 {
		r, err := NewRunner("mountaincar", smallCfg(), 11)
		if err != nil {
			t.Fatal(err)
		}
		r.Parallelism = 4
		var maxes []float64
		for g := 0; g < 3; g++ {
			st, err := r.Step(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			maxes = append(maxes, st.MaxFitness, st.MeanFitness)
		}
		return maxes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel evaluation non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestSerialAndParallelAgree(t *testing.T) {
	run := func(par int) float64 {
		r, err := NewRunner("cartpole", smallCfg(), 13)
		if err != nil {
			t.Fatal(err)
		}
		r.Parallelism = par
		st, err := r.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st.MeanFitness
	}
	if s, p := run(1), run(8); s != p {
		t.Fatalf("serial %v != parallel %v", s, p)
	}
}

func TestRAMWorkloadScale(t *testing.T) {
	cfg := smallCfg()
	cfg.PopulationSize = 20
	r, err := NewRunner("asterix-ram", cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 128 inputs × 9 outputs fully connected: >1000 genes per genome.
	if st.TotalGenes < 20*(128*9+137) {
		t.Fatalf("RAM workload population too small: %d genes", st.TotalGenes)
	}
	// Memory footprint per generation must stay in the paper's <1 MB
	// regime at this reduced population (150/20 of the full size would
	// still be ~2 MB for asterix — the paper's Fig 5b tops near 1 MB).
	if st.FootprintBytes <= 0 {
		t.Fatal("no footprint recorded")
	}
	t.Logf("asterix-ram pop=20: genes=%d footprint=%dKB ops=%d",
		st.TotalGenes, st.FootprintBytes/1024, st.CrossoverOps+st.MutationOps)
}

// TestFitnessRewardsProgress: the MountainCar fitness must score the
// highest position an episode's steps reached, not where the car ended
// or started, so a higher climb ranks above a lower one.
func TestFitnessRewardsProgress(t *testing.T) {
	w, err := WorkloadByName("mountaincar")
	if err != nil {
		t.Fatal(err)
	}
	// climb pushes right for n steps, then coasts until the car has
	// rolled back 20 steps, and returns the episode's fitness with the
	// one the highest step position should give.
	climb := func(n int) (got, want float64) {
		e, err := env.New("mountaincar")
		if err != nil {
			t.Fatal(err)
		}
		e.Reset(7)
		peak := -1.2
		for step := 0; step < n+20; step++ {
			act := []float64{0, 1, 0}
			if step < n {
				act = []float64{0, 0, 1}
			}
			obs, _, _ := e.Step(act)
			peak = max(peak, obs[0])
		}
		return w.Fitness(e, n+20, -float64(n+20)), (peak + 1.2) / 1.7 * 90
	}
	low, wantLow := climb(5)
	high, wantHigh := climb(40)
	if low != wantLow || high != wantHigh || !(high > low) {
		t.Fatalf("climbs scored %v and %v, want %v and %v", low, high, wantLow, wantHigh)
	}
	e, err := env.New("mountaincar")
	if err != nil {
		t.Fatal(err)
	}
	e.Reset(7)
	if got := w.Fitness(e, 0, 0); got != 0 {
		t.Fatalf("an episode with no step scored %v; the start position must not count", got)
	}
}

func TestHistoryAccumulates(t *testing.T) {
	r, err := NewRunner("mario", smallCfg(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if len(r.History) == 0 || len(r.History) > 3 {
		t.Fatalf("history %d entries", len(r.History))
	}
	for i, st := range r.History {
		if st.Generation != i {
			t.Fatalf("history[%d].Generation = %d", i, st.Generation)
		}
	}
}
