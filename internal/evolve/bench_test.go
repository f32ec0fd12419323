package evolve

import (
	"context"
	"testing"

	"repro/internal/neat"
)

// benchRunner builds a runner for workload advanced warmupGens
// generations, so a positive warmup benchmarks an evolved (non-minimal)
// population.
func benchRunner(tb testing.TB, workload string, pop, warmupGens int) *Runner {
	tb.Helper()
	cfg := neat.DefaultConfig(0, 0)
	cfg.PopulationSize = pop
	r, err := NewRunner(workload, cfg, 42)
	if err != nil {
		tb.Fatal(err)
	}
	for g := 0; g < warmupGens; g++ {
		if _, err := r.Step(context.Background()); err != nil {
			tb.Fatal(err)
		}
	}
	return r
}

// benchEvaluate times r.EvaluateGeneration. The population is held at a
// fixed generation (no Epoch between iterations), so iterations are
// directly comparable.
func benchEvaluate(b *testing.B, r *Runner) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.EvaluateGeneration(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateGeneration measures one full population evaluation —
// the population-level-parallel hot loop every generation pays — on an
// evolved cartpole population, through the batch engine at its default
// width.
func BenchmarkEvaluateGeneration(b *testing.B) {
	r := benchRunner(b, "cartpole", 64, 8)
	r.Parallelism = 4
	benchEvaluate(b, r)
}

// BenchmarkEvaluateGenerationScalar times the serial test reference
// (evaluateReference: the pre-batch-engine semantics, one genome and
// one episode at a time) on the identical workload, so the batch
// engine's speedup is measured in-tree.
func BenchmarkEvaluateGenerationScalar(b *testing.B) {
	r := benchRunner(b, "cartpole", 64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := evaluateReference(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateGenerationRAM measures RAM-scale evaluation
// (alien-ram, pop 50, one worker) on both of its paths: generation 0,
// whose genomes share one topology and run as one group through the
// batch engine, and an evolved generation, whose genomes are
// singletons that run as per-episode jobs.
func BenchmarkEvaluateGenerationRAM(b *testing.B) {
	for _, bc := range []struct {
		name   string
		warmup int
	}{
		{"gen0", 0},
		{"evolved", 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := benchRunner(b, "alien-ram", 50, bc.warmup)
			r.Parallelism = 1
			benchEvaluate(b, r)
		})
	}
}

// BenchmarkRunRAM times one whole RAM-game job in process: NewRunner,
// then five generations at pop 50 on one worker, so reproduction,
// speciation and phenotype compile count along with evaluation. The
// iterations rotate through the four *-ram workloads.
func BenchmarkRunRAM(b *testing.B) {
	suite := AtariSuite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := neat.DefaultConfig(0, 0)
		cfg.PopulationSize = 50
		r, err := NewRunner(suite[i%len(suite)], cfg, 42)
		if err != nil {
			b.Fatal(err)
		}
		r.Parallelism = 1
		if _, err := r.Run(context.Background(), 5); err != nil {
			b.Fatal(err)
		}
	}
}
