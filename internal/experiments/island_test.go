package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"repro/internal/evolve"
	"repro/internal/store"
)

// islandReq is the tiny island run these tests resolve. The seed range
// (888xxx) is private to this file.
func islandReq(seed uint64) IslandRequest {
	return IslandRequest{
		Workload:       "cartpole",
		Population:     16,
		Generations:    4,
		Islands:        2,
		MigrationEvery: 2,
		Seed:           seed,
	}
}

func TestRunSharedIslandSingleflight(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)

	const callers = 4
	outs := make([]*IslandOutcome, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = RunSharedIsland(islandReq(888001))
		}(i)
	}
	wg.Wait()
	computed := 0
	for i := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if outs[i].Computed {
			computed++
		}
		if outs[i].Run != outs[0].Run {
			t.Fatal("concurrent callers got different run objects")
		}
	}
	if computed != 1 {
		t.Fatalf("%d computations for one key, want exactly 1", computed)
	}
}

// TestIslandStoreRoundTrip: an island run committed to the store
// replays after a cache reset (the "restart") with no evolution
// executed and a byte-identical result.
func TestIslandStoreRoundTrip(t *testing.T) {
	withTestStore(t, store.Config{})
	ResetCaches()

	first, err := RunSharedIsland(islandReq(888002))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Computed || first.Stored {
		t.Fatalf("first run: Computed=%v Stored=%v", first.Computed, first.Stored)
	}
	want, err := json.Marshal(first.Run)
	if err != nil {
		t.Fatal(err)
	}
	execs := EvolutionsExecuted()

	ResetCaches() // drop memory, keep disk: simulated restart
	second, err := RunSharedIsland(islandReq(888002))
	if err != nil {
		t.Fatal(err)
	}
	if second.Computed || !second.Stored {
		t.Fatalf("replay: Computed=%v Stored=%v", second.Computed, second.Stored)
	}
	got, err := json.Marshal(second.Run)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatal("stored island run is not byte-identical to the computed one")
	}
	// ResetCaches zeroed the counter; a disk replay must not execute.
	_ = execs
	if EvolutionsExecuted() != 0 {
		t.Fatalf("replay executed %d evolutions, want 0", EvolutionsExecuted())
	}
}

func TestPeekSharedIsland(t *testing.T) {
	withTestStore(t, store.Config{})
	ResetCaches()

	req := islandReq(888003)
	key := store.Key{Workload: req.Workload, Population: req.Population, Generations: req.Generations,
		Seed: req.Seed, Islands: req.Islands, MigrationEvery: req.MigrationEvery}
	if _, _, ok := islandTier.peek(key); ok {
		t.Fatal("peek hit before anything ran")
	}
	first, err := RunSharedIsland(req)
	if err != nil {
		t.Fatal(err)
	}
	run, stored, ok := islandTier.peek(key)
	if !ok || stored || run != first.Run {
		t.Fatalf("memory peek: ok=%v stored=%v same=%v", ok, stored, run == first.Run)
	}

	ResetCaches()
	run, stored, ok = islandTier.peek(key)
	if !ok || !stored {
		t.Fatalf("disk peek: ok=%v stored=%v", ok, stored)
	}
	if run.Seed != req.Seed || run.Islands != req.Islands {
		t.Fatalf("disk peek returned the wrong run: %+v", run)
	}
	if EvolutionsExecuted() != 0 {
		t.Fatal("peek executed an evolution")
	}
}

// TestRunSharedIslandCustomRun: the pluggable Run closure (the
// coordinator's distributed executor seam) is used on a cold miss and
// its result is what lands in cache and store.
func TestRunSharedIslandCustomRun(t *testing.T) {
	withTestStore(t, store.Config{})
	ResetCaches()

	req := islandReq(888004)
	calls := 0
	req.Run = func(ctx context.Context) (*evolve.IslandRun, error) {
		calls++
		return evolve.RunIslands(ctx, evolve.IslandSpec{
			Workload:       req.Workload,
			Population:     req.Population,
			Generations:    req.Generations,
			Islands:        req.Islands,
			MigrationEvery: req.MigrationEvery,
			Seed:           req.Seed,
		})
	}
	out, err := RunSharedIsland(req)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !out.Computed {
		t.Fatalf("custom Run called %d times, Computed=%v", calls, out.Computed)
	}
	// Second request: served from memory, closure untouched.
	again, err := RunSharedIsland(req)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || again.Computed || again.Run != out.Run {
		t.Fatalf("cache hit recomputed: calls=%d Computed=%v", calls, again.Computed)
	}
}

func TestRunSharedIslandErrorNotCached(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)

	req := islandReq(888005)
	boom := errors.New("worker died")
	req.Run = func(ctx context.Context) (*evolve.IslandRun, error) { return nil, boom }
	if _, err := RunSharedIsland(req); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The failure must not poison the key: a retry without the failing
	// closure computes locally and succeeds.
	req.Run = nil
	out, err := RunSharedIsland(req)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Computed {
		t.Fatal("retry after failure did not compute")
	}
}

func TestRunSharedIslandValidates(t *testing.T) {
	req := islandReq(888006)
	req.Islands = 3 // population 16 not divisible
	if _, err := RunSharedIsland(req); err == nil {
		t.Fatal("invalid island spec accepted")
	}
}
