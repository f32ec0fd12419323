package evolve

import (
	"context"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// TestConcurrentCheckpointResumeBitIdentical is the race-detector
// proof of the on-demand checkpoint path the serving layer uses: a
// second goroutine hammers RequestCheckpoint while the run is live and
// generations are streaming to a sink, a mid-run checkpoint is copied
// aside the moment it appears, and a runner restored from that copy
// finishes with exactly the history suffix the uninterrupted run
// produced. Runs under -race via scripts/check.sh.
func TestConcurrentCheckpointResumeBitIdentical(t *testing.T) {
	// MountainCar at this seed/budget never solves (pinned by
	// TestCheckpointResumeBitIdentical), so histories are full length.
	const seed, budget = 13, 8
	ctx := context.Background()

	// Uninterrupted reference.
	ref, err := NewRunner("mountaincar", smallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(ctx, budget); err != nil {
		t.Fatal(err)
	}
	if len(ref.History) != budget {
		t.Fatalf("reference ran %d generations, want %d", len(ref.History), budget)
	}

	// Live run: sink streaming, checkpoint requests arriving from
	// another goroutine the whole time. CheckpointEvery is 0 — every
	// save on this run is an on-demand one. The request goroutine is
	// paced by the record stream (one full request+copy iteration per
	// generation boundary) so the test is deterministic on any
	// scheduler: every generation carries a pending request, and the
	// copier provably observes a mid-run checkpoint file.
	ckpts := store.NewCheckpoints(t.TempDir(), store.OSFS{})
	key := store.Key{Workload: "mountaincar", Population: 30, Generations: budget, Seed: seed}
	var copied []byte
	b, err := NewRunner("mountaincar", smallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	checkpointTo(b, ckpts, key)
	log := &hwsim.Log{}
	bound := make(chan struct{})
	acked := make(chan struct{})
	b.Sink = hwsim.MultiSink(log, hwsim.SinkFunc(func(hwsim.Record) {
		bound <- struct{}{}
		<-acked
	}))

	grabbed := make(chan struct{})
	go func() {
		defer close(grabbed)
		for range bound {
			b.RequestCheckpoint()
			// Copy the first checkpoint that materializes: a mid-run
			// boundary snapshot. Saves go through temp+rename, so a
			// read here sees a complete file.
			if copied == nil {
				copied, _ = ckpts.Load(key)
			}
			acked <- struct{}{}
		}
	}()
	if _, err := b.Run(ctx, budget); err != nil {
		t.Fatal(err)
	}
	close(bound)
	<-grabbed

	// Concurrency must not perturb the run itself.
	if len(b.History) != len(ref.History) {
		t.Fatalf("live run %d generations vs reference %d", len(b.History), len(ref.History))
	}
	for i := range ref.History {
		if b.History[i] != ref.History[i] {
			t.Fatalf("generation %d diverged under concurrent checkpointing:\n%+v\nvs\n%+v",
				i, b.History[i], ref.History[i])
		}
	}
	if log.Len() != budget {
		t.Fatalf("sink saw %d records, want %d", log.Len(), budget)
	}

	if copied == nil {
		t.Fatal("no mid-run checkpoint captured")
	}

	// Resume from the mid-run snapshot: the continuation must be the
	// reference history's tail, stat for stat.
	c, err := RestoreRunner("mountaincar", copied, seed)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	cut := c.Pop.Generation
	if cut < 1 || cut >= budget {
		t.Fatalf("mid-run checkpoint at generation %d, want within (0, %d)", cut, budget)
	}
	if _, err := c.Run(ctx, budget); err != nil {
		t.Fatal(err)
	}
	tail := ref.History[cut:]
	if len(c.History) != len(tail) {
		t.Fatalf("resumed %d generations, reference tail has %d", len(c.History), len(tail))
	}
	for i := range tail {
		if c.History[i] != tail[i] {
			t.Fatalf("generation %d diverged after mid-run resume:\n%+v\nvs\n%+v",
				tail[i].Generation, c.History[i], tail[i])
		}
	}
}

// TestTwoWritersOneCheckpoint is the partitioned-worker case: a worker
// cut off from the coordinator keeps running a job while the
// coordinator re-dispatches its key to another worker, and both save
// the key's one checkpoint file. Two runs of one key, each saving
// through a handle of its own, checkpoint every generation to one
// directory at once. Both must finish with no failed save, every
// checkpoint a concurrent reader sees must restore (and none may fail
// its digest, which Load would report by removing the file), and the
// file they leave is the last boundary before the budget.
func TestTwoWritersOneCheckpoint(t *testing.T) {
	const seed, budget = 13, 8
	dir := t.TempDir()
	key := store.Key{Workload: "mountaincar", Population: 30, Generations: budget, Seed: seed}
	errs := make([]error, 2)
	phases := make([]*hwsim.Counters, 2)
	var writers sync.WaitGroup
	for i := range errs {
		r, err := NewRunner("mountaincar", smallConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		checkpointTo(r, store.NewCheckpoints(dir, store.OSFS{}), key)
		r.CheckpointEvery = 1
		phases[i] = hwsim.New("phases")
		r.Phases = phases[i]
		writers.Add(1)
		go func() {
			defer writers.Done()
			_, errs[i] = r.Run(context.Background(), budget)
		}()
	}

	spy := &removeSpy{FS: store.OSFS{}}
	reader := store.NewCheckpoints(dir, spy)
	stop := make(chan struct{})
	var reads int
	var readErr error
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			doc, ok := reader.Load(key)
			if !ok {
				continue // no checkpoint yet
			}
			if _, err := RestoreRunner("mountaincar", doc, seed); err != nil {
				readErr = err
				return
			}
			reads++
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone

	for i, err := range errs {
		if err != nil {
			t.Errorf("writer %d: %v", i, err)
		}
		if n := phases[i].IntValue("checkpoint_errors"); n != 0 {
			t.Errorf("writer %d: %d failed saves", i, n)
		}
	}
	if readErr != nil {
		t.Fatalf("a concurrent reader saw a checkpoint that does not restore (after %d good reads): %v", reads, readErr)
	}
	if n := spy.removed.Load(); n != 0 {
		t.Fatalf("a concurrent reader saw %d checkpoints fail their digest (after %d good reads)", n, reads)
	}
	if last := resume(t, reader, key); last.Pop.Generation != budget-1 {
		t.Fatalf("final checkpoint at generation %d, want %d", last.Pop.Generation, budget-1)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 || ents[0].Name() != key.String()+".ckpt" {
		t.Fatalf("checkpoint dir holds %d entries, want only the checkpoint", len(ents))
	}
	t.Logf("%d concurrent reads restored", reads)
}

// removeSpy counts the removals made through it.
type removeSpy struct {
	store.FS
	removed atomic.Int64
}

func (s *removeSpy) RemoveAll(path string) error {
	s.removed.Add(1)
	return s.FS.RemoveAll(path)
}
