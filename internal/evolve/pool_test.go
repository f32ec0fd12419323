package evolve

import (
	"context"
	"errors"
	"testing"

	"repro/internal/neat"
)

func poolRunner(t *testing.T, pop int) *Runner {
	t.Helper()
	cfg := neat.DefaultConfig(0, 0)
	cfg.PopulationSize = pop
	r, err := NewRunner("cartpole", cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEvaluateGenerationCancelled(t *testing.T) {
	r := poolRunner(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := r.EvaluateGeneration(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The parallel dispatch path must honor cancellation too.
	r.Parallelism = 4
	if _, _, _, err := r.EvaluateGeneration(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
	// The runner stays usable after a cancelled evaluation.
	if _, _, _, err := r.EvaluateGeneration(context.Background()); err != nil {
		t.Fatalf("evaluation after cancel: %v", err)
	}
}

func TestWorkerPoolPersistsAcrossGenerations(t *testing.T) {
	r := poolRunner(t, 16)
	ctx := context.Background()
	if _, err := r.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if len(r.workers) == 0 {
		t.Fatal("no workers after first generation")
	}
	w0 := r.workers[0]
	for i := 0; i < 3; i++ {
		if _, err := r.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if r.workers[0] != w0 {
		t.Fatal("worker slot rebuilt between generations; pool is not persistent")
	}
}

// TestSeedGenerationCompilesOnce pins the shared version stamp of
// generation 0: its genomes are clones of one seed, so evaluating it
// compiles one program and serves every other genome from the cache.
func TestSeedGenerationCompilesOnce(t *testing.T) {
	const pop = 24
	r := poolRunner(t, pop)
	if _, _, _, err := r.EvaluateGeneration(context.Background()); err != nil {
		t.Fatal(err)
	}
	if hits, misses := r.PhenoCache().Stats(); hits != pop-1 || misses != 1 {
		t.Fatalf("cache read %d hits, %d misses; want %d, 1", hits, misses, pop-1)
	}
}

// TestPhenoCacheHitsAcrossGenerations pins the genome-level reuse: with
// elitism on, at least one phenotype per generation after the first must
// be served from the cache instead of recompiled.
func TestPhenoCacheHitsAcrossGenerations(t *testing.T) {
	r := poolRunner(t, 24)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := r.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := r.PhenoCache().Stats()
	if hits == 0 {
		t.Fatalf("no cache hits over 4 generations (misses=%d); elites are being recompiled", misses)
	}
	// Sweep keeps the cache bounded by the live population, not the
	// cumulative history.
	if n := r.PhenoCache().Len(); n > 2*len(r.Pop.Genomes) {
		t.Fatalf("cache holds %d programs for a %d-genome population", n, len(r.Pop.Genomes))
	}
}
