package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"repro/internal/evolve"
	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// ramKey is a RAM-game run that stores about 2.2 MB, so four of them
// pass heldBudget. The seed range (778xxx) is private to this file.
func ramKey(i uint64) store.Key {
	return store.Key{Workload: "alien-ram", Population: 50, Generations: 1, Seed: 778000 + i}
}

func mustResolve(t *testing.T, key store.Key) JobOutcome {
	t.Helper()
	out, err := Resolve(JobRequest{Key: key})
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	return out
}

// inMemory reports whether key's run is memoized in its tier, without
// touching its recency.
func inMemory(key store.Key) bool {
	var ok bool
	switch {
	case key.Islands > 0:
		_, ok = islandTier.mem.peek(key)
	case key.Objectives != "":
		_, ok = paretoTier.mem.peek(key)
	default:
		_, ok = runTier.mem.peek(key)
	}
	return ok
}

// evictions is the held list's eviction count.
func evictions() int64 {
	_, _, n := HeldRuns()
	return n
}

// written is the payload bytes the store has committed so far.
func written(s *store.Store) int64 { return s.Counters().Snapshot().Int("ops/bytes_written") }

// evictAll resolves fresh RAM-game runs, numbered from *next, until
// none of keys is in memory.
func evictAll(t *testing.T, next *uint64, keys ...store.Key) {
	t.Helper()
	for n := 0; ; n++ {
		resident := false
		for _, k := range keys {
			resident = resident || inMemory(k)
		}
		if !resident {
			return
		}
		if n == 8 {
			t.Fatalf("%d runs past the budget left one of %v in memory", n, keys)
		}
		mustResolve(t, ramKey(*next))
		*next++
	}
}

// TestHeldBytesBounded drives distinct store-held runs whose payloads
// total more than three times heldBudget through the tiers, asking for
// the first run again after each. The held bytes never pass the budget
// plus the largest run, runs are evicted, and the first run outlives
// every run older than its last hit: a hit refreshes recency.
func TestHeldBytesBounded(t *testing.T) {
	s := withTestStore(t, store.Config{})
	ResetCaches()
	first := ramKey(0)
	mustResolve(t, first)
	largest := written(s)
	for i := uint64(1); written(s) < 3*heldBudget; i++ {
		before := written(s)
		if out := mustResolve(t, ramKey(i)); !out.Computed {
			t.Fatalf("%s: not computed", ramKey(i))
		}
		largest = max(largest, written(s)-before)
		if out := mustResolve(t, first); out.Computed || out.Stored {
			t.Fatalf("run %d: the first run was not a memory hit: %+v", i, out)
		}
		if _, size, _ := HeldRuns(); size > heldBudget+largest {
			t.Fatalf("run %d: %d bytes held, budget %d + largest run %d", i, size, heldBudget, largest)
		}
	}
	runs, size, evicted := HeldRuns()
	t.Logf("%d bytes committed; %d runs held in %d bytes, %d evicted", written(s), runs, size, evicted)
	if evicted == 0 {
		t.Fatal("nothing was evicted")
	}
	if !inMemory(first) || inMemory(ramKey(1)) {
		t.Fatalf("first run in memory %v, second %v; want the hit run kept and the older evicted",
			inMemory(first), inMemory(ramKey(1)))
	}
	if hits := s.Stats().Hits; hits != 0 {
		t.Fatalf("%d store hits; the hit run was reloaded", hits)
	}
}

// TestHeldNeverEvicts: runs the store does not hold stay in memory
// past the budget — with no store attached, after a failed commit and
// after a resume — and so does a run in flight while others are
// evicted, whose waiters share its value. A failed flight leaves
// nothing held.
func TestHeldNeverEvicts(t *testing.T) {
	// pinned resolves RAM-game runs past the budget and checks that
	// none joined the held list and all are still in memory.
	pinned := func(t *testing.T) {
		t.Helper()
		var payload int64
		var keys []store.Key
		for i := uint64(0); payload <= heldBudget; i++ {
			key := ramKey(100 + i)
			mustResolve(t, key)
			e, _, _ := runTier.peek(key)
			files, err := encodeRun(key, e)
			if err != nil {
				t.Fatal(err)
			}
			payload += payloadBytes(files)
			keys = append(keys, key)
		}
		if runs, size, evicted := HeldRuns(); runs != 0 || size != 0 || evicted != 0 {
			t.Fatalf("held list %d runs, %d bytes, %d evicted; want it empty", runs, size, evicted)
		}
		for _, key := range keys {
			if !inMemory(key) {
				t.Fatalf("%s left memory", key)
			}
		}
	}

	t.Run("no store", func(t *testing.T) {
		ResetCaches()
		t.Cleanup(ResetCaches)
		pinned(t)
	})

	t.Run("failed commit", func(t *testing.T) {
		s := withTestStore(t, store.Config{FS: &store.FaultFS{Inner: store.OSFS{}, WriteFailEvery: 1}})
		ResetCaches()
		pinned(t)
		if s.Stats().CommitErrors == 0 {
			t.Fatal("no commit failed")
		}
	})

	t.Run("resumed", func(t *testing.T) {
		withTestStore(t, store.Config{})
		ResetCaches()
		// Plant generation 1 of the 2-generation key as its checkpoint.
		req := persistReq(777101)
		key := store.Key{Workload: req.Workload, Population: req.Population, Generations: req.Generations, Seed: req.Seed}
		req.Checkpoints, req.CheckpointEvery = plantCheckpoint(t, t.TempDir(), key), 1
		res, err := RunShared(req)
		if err != nil || !res.Resumed {
			t.Fatalf("resume: %v, Resumed=%v", err, res != nil && res.Resumed)
		}
		next := uint64(200)
		for evictions() == 0 {
			mustResolve(t, ramKey(next))
			next++
		}
		if !inMemory(key) {
			t.Fatal("the resumed run was evicted")
		}
	})

	t.Run("in flight", func(t *testing.T) {
		withTestStore(t, store.Config{})
		ResetCaches()
		key := store.Key{Workload: "cartpole", Population: 8, Generations: 2, Seed: 778301, Islands: 2, MigrationEvery: 1}
		gate := make(chan struct{})
		run := func() (*IslandOutcome, error) {
			return RunSharedIsland(IslandRequest{Workload: key.Workload, Population: key.Population,
				Generations: key.Generations, Islands: key.Islands, MigrationEvery: key.MigrationEvery, Seed: key.Seed,
				Run: func(ctx context.Context) (*evolve.IslandRun, error) {
					<-gate
					return evolve.RunIslands(ctx, islandSpec(key))
				}})
		}
		outs := make([]*IslandOutcome, 3)
		var wg sync.WaitGroup
		for i := range outs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, err := run()
				if err != nil {
					t.Error(err)
				}
				outs[i] = out
			}(i)
		}
		next := uint64(300)
		for evictions() == 0 {
			mustResolve(t, ramKey(next))
			next++
		}
		close(gate)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		computed := 0
		for _, out := range outs {
			if out.Run != outs[0].Run {
				t.Fatal("the requesters got different runs")
			}
			if out.Computed {
				computed++
			}
		}
		if computed != 1 {
			t.Fatalf("%d requesters computed, want 1", computed)
		}
		if !inMemory(key) {
			t.Fatal("the run computed under eviction pressure is not in memory")
		}
	})

	t.Run("failed flight", func(t *testing.T) {
		withTestStore(t, store.Config{})
		ResetCaches()
		key := store.Key{Workload: "cartpole", Population: 8, Generations: 2, Seed: 778401, Islands: 2, MigrationEvery: 1}
		boom := errors.New("boom")
		_, err := Resolve(JobRequest{Key: key, RunIslands: func(context.Context, evolve.IslandSpec) (*evolve.IslandRun, error) {
			return nil, boom
		}})
		if !errors.Is(err, boom) {
			t.Fatalf("err %v, want boom", err)
		}
		if runs, size, _ := HeldRuns(); runs != 0 || size != 0 || inMemory(key) {
			t.Fatalf("after a failed flight: %d runs, %d bytes held, in memory %v", runs, size, inMemory(key))
		}
		if out := mustResolve(t, key); !out.Computed {
			t.Fatalf("the key after its failure: %+v, want a fresh computation", out)
		}
	})
}

// TestEvictedRunSharesOneStoreLoad: concurrent requesters of an
// evicted run block on one store load and share its run.
func TestEvictedRunSharesOneStoreLoad(t *testing.T) {
	s := withTestStore(t, store.Config{})
	ResetCaches()
	key := store.Key{Workload: "cartpole", Population: 16, Generations: 2, Seed: 778501}
	mustResolve(t, key)
	next := uint64(500)
	evictAll(t, &next, key)

	hits, loads := s.Stats().Hits, runTier.mem.computes.Load()
	const callers = 8
	runs := make([]*SharedRun, callers)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run, err := RunShared(SharedRequest{Workload: key.Workload, Population: key.Population,
				Generations: key.Generations, Seed: key.Seed})
			if err != nil {
				t.Error(err)
			}
			runs[i] = run
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	stored := 0
	for _, run := range runs {
		if run.Runner != runs[0].Runner {
			t.Fatal("the requesters got different runs")
		}
		if run.Stored {
			stored++
		}
	}
	if d := s.Stats().Hits - hits; d != 1 || stored != 1 {
		t.Fatalf("%d store hits and %d Stored outcomes for %d requesters, want 1 and 1", d, stored, callers)
	}
	if d := runTier.mem.computes.Load() - loads; d != 1 {
		t.Fatalf("%d fills of the memory map, want 1", d)
	}
}

// TestEvictedRunReplaysIdentically: for every run kind, a run evicted
// from memory answers its next request from the store, with the record
// stream and outcome of the computing request byte for byte, and no
// evolution executes.
func TestEvictedRunReplaysIdentically(t *testing.T) {
	withTestStore(t, store.Config{})
	ResetCaches()
	next := uint64(600)
	for _, key := range goldenKeys {
		first, want := resolveStream(t, key)
		if !first.Computed {
			t.Fatalf("%s: not computed", key)
		}
		evictAll(t, &next, key)
		before := EvolutionsExecuted()
		out, got := resolveStream(t, key)
		if !out.Stored || out.Computed {
			t.Fatalf("%s after eviction: Stored=%v Computed=%v, want a store hit", key, out.Stored, out.Computed)
		}
		if d := EvolutionsExecuted() - before; d != 0 {
			t.Fatalf("%s: the reload executed %d evolutions", key, d)
		}
		if got != want {
			t.Fatalf("%s: reloaded stream differs:\n%s\n%s", key, got, want)
		}
		out.Computed, out.Stored = true, false
		if out != first {
			t.Fatalf("%s: reloaded outcome %+v, computed %+v", key, out, first)
		}
	}
}

// TestHeldConcurrent resolves RAM-game runs whose payloads pass the
// budget from several goroutines at once, twice over, so computes,
// memory hits, store loads and evictions interleave. Every second
// request replays the first one's record stream, and the held bytes
// stay within the budget plus one run.
func TestHeldConcurrent(t *testing.T) {
	withTestStore(t, store.Config{})
	ResetCaches()
	const workers, each = 6, 2
	key := func(w, i int) store.Key {
		return store.Key{Workload: "alien-ram", Population: 16, Generations: 1, Seed: 778700 + uint64(w*each+i)}
	}
	streams := make([][]string, workers)
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					var buf bytes.Buffer
					_, err := Resolve(JobRequest{Key: key(w, i), Sink: hwsim.SinkFunc(func(r hwsim.Record) {
						b, _ := json.Marshal(r)
						buf.Write(append(b, '\n'))
					})})
					if err != nil {
						t.Error(err)
						return
					}
					got := buf.String()
					if round == 0 {
						streams[w] = append(streams[w], got)
					} else if got != streams[w][i] {
						t.Errorf("%s: the second stream differs from the first", key(w, i))
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	runs, size, evicted := HeldRuns()
	t.Logf("%d runs held in %d bytes, %d evicted", runs, size, evicted)
	if evicted == 0 || size > heldBudget+1<<20 {
		t.Fatalf("%d bytes held, %d evicted; want evictions and at most the budget plus one 768 KB run", size, evicted)
	}
}
