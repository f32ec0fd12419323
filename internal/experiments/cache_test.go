package experiments

import (
	"context"
	"sync"
	"testing"

	"repro/internal/neat"
	"repro/internal/store"
)

// TestRunCacheSingleflight pins the tentpole's core guarantee: many
// generators concurrently requesting the same (workload, population,
// generations, seed) key block on ONE evolution and share its
// result. Run under -race in scripts/check.sh.
func TestRunCacheSingleflight(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	opt := quickOpt().withDefaults()

	const callers = 8
	runs := make([]*evolved, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := runWorkload("cartpole", opt)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			runs[i] = e
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < callers; i++ {
		if runs[i] != runs[0] {
			t.Fatalf("caller %d got a different run instance", i)
		}
	}
	if n := runTier.mem.computes.Load(); n != 1 {
		t.Fatalf("%d evolutions for one unique key, want 1", n)
	}

	// A different key (another seed) is a separate evolution.
	other := opt
	other.Seed += 7919
	if _, err := runWorkload("cartpole", other); err != nil {
		t.Fatal(err)
	}
	if n := runTier.mem.computes.Load(); n != 2 {
		t.Fatalf("%d evolutions for two unique keys, want 2", n)
	}
}

// TestRunCacheErrorEvicted pins the retry path: a failed computation
// (here: a pre-cancelled context) must not poison its key.
func TestRunCacheErrorEvicted(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	opt := quickOpt().withDefaults()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bad := opt
	bad.Ctx = ctx
	if _, err := runWorkload("mountaincar", bad); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	e, err := runWorkload("mountaincar", opt)
	if err != nil {
		t.Fatalf("key poisoned by earlier failure: %v", err)
	}
	if e == nil || len(e.runner.History) == 0 {
		t.Fatal("retried run has no history")
	}
}

// TestStudyCacheShared pins that studyFor and studyRecords share one
// study computation per unique key.
func TestStudyCacheShared(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	opt := quickOpt().withDefaults()

	st, err := studyFor("cartpole", opt)
	if err != nil {
		t.Fatal(err)
	}
	log, err := studyRecords("cartpole", opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := studyCache.computes.Load(); n != 1 {
		t.Fatalf("%d study computations, want 1", n)
	}
	// The synthesized record stream matches the study's histories.
	want := 0
	for _, res := range st.Results {
		want += len(res.History)
	}
	if log.Len() != want {
		t.Fatalf("synthesized log has %d records, study has %d generations", log.Len(), want)
	}
	for _, rec := range log.Records() {
		if rec.Workload != "cartpole" {
			t.Fatalf("record workload %q", rec.Workload)
		}
		if got := st.Results[rec.Run].History[rec.Generation].CounterReport(); got.Ints["total_genes"] != rec.Report.Ints["total_genes"] {
			t.Fatalf("run %d gen %d: synthesized record diverges", rec.Run, rec.Generation)
		}
	}
}

// TestPopulationBounded: a key whose population is past
// neat.MaxPopulationSize is refused by Validate and by Resolve, for
// every run kind, before any population is built. A population of
// 1<<62 once reached neat.NewPopulation, whose allocation panicked.
func TestPopulationBounded(t *testing.T) {
	for _, key := range []store.Key{
		{Workload: "cartpole", Population: 1 << 62, Generations: 1, Seed: 1},
		{Workload: "cartpole", Population: neat.MaxPopulationSize + 1, Generations: 1, Seed: 1},
		{Workload: "cartpole", Population: 1 << 62, Generations: 1, Seed: 1, Islands: 2, MigrationEvery: 1},
		{Workload: "cartpole", Population: 1 << 62, Generations: 1, Seed: 1, Objectives: "fitness+genes"},
	} {
		if err := Validate(key); err == nil {
			t.Errorf("%s: Validate accepted it", key)
		}
		if _, err := Resolve(JobRequest{Key: key}); err == nil {
			t.Errorf("%s: Resolve accepted it", key)
		}
	}
}

// TestGenerationsBounded: a key whose generation budget is past the
// bound is refused by Validate and by Resolve, for every run kind,
// before anything runs. A RAM-game key with 1<<62 generations was once
// admitted and ran until cancelled, one record per generation.
func TestGenerationsBounded(t *testing.T) {
	for _, key := range []store.Key{
		{Workload: "alien-ram", Population: 16, Generations: 1 << 62, Seed: 1},
		{Workload: "cartpole", Population: 16, Generations: 1 << 20, Seed: 1},
		{Workload: "cartpole", Population: 16, Generations: 1 << 62, Seed: 1, Islands: 2, MigrationEvery: 1},
		{Workload: "cartpole", Population: 16, Generations: 1 << 62, Seed: 1, Objectives: "fitness+genes"},
	} {
		if err := Validate(key); err == nil {
			t.Errorf("%s: Validate accepted it", key)
		}
		if _, err := Resolve(JobRequest{Key: key}); err == nil {
			t.Errorf("%s: Resolve accepted it", key)
		}
	}
}
