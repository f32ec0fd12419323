package evolve

import (
	"context"
	"testing"

	"repro/internal/neat"
)

// benchRunner builds a cartpole runner advanced a few generations so the
// benchmarked population carries evolved (non-minimal) genomes.
func benchRunner(tb testing.TB, pop, warmupGens int) *Runner {
	tb.Helper()
	cfg := neat.DefaultConfig(0, 0)
	cfg.PopulationSize = pop
	r, err := NewRunner("cartpole", cfg, 42)
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

// BenchmarkEvaluateGeneration measures one full population evaluation —
// the population-level-parallel hot loop every generation pays. The
// population is held at a fixed generation (no Epoch between
// iterations), so iterations are directly comparable.
func BenchmarkEvaluateGeneration(b *testing.B) {
	r := benchRunner(b, 64, 8)
	r.Parallelism = 4
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.EvaluateGeneration(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateGenerationScalar times the serial test reference
// (evaluateReference: the pre-batch-engine semantics, one genome and
// one episode at a time) on the identical workload, so the batch
// engine's speedup is measured in-tree.
func BenchmarkEvaluateGenerationScalar(b *testing.B) {
	r := benchRunner(b, 64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := evaluateReference(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateGenerationBatch is the tensorized engine at its
// default width on the same evolved population — the PR6 acceptance
// benchmark (same workload as BenchmarkEvaluateGeneration, batch
// successor).
func BenchmarkEvaluateGenerationBatch(b *testing.B) {
	r := benchRunner(b, 64, 8)
	r.Parallelism = 4
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.EvaluateGeneration(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
