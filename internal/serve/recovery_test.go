package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// Seeds 9600s: crash recovery. See the seed-range note in
// server_test.go.
const seedRecovery = 9600

// resetPersistence detaches the process-global store binding and wipes
// the in-memory caches after a store-backed test, so later tests see
// the same world earlier ones did.
func resetPersistence(t *testing.T) {
	t.Cleanup(func() {
		experiments.UseStore(nil)
		experiments.ResetCaches()
	})
}

// marshalRec renders a streamed record for byte-level comparison.
func marshalRec(t *testing.T, r hwsim.Record) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCrashRecoveryReplay is the durability acceptance scenario: a
// daemon computes one fast job (committed to the store) and is killed
// with a slow job mid-flight (leaving only its checkpoint). A second
// daemon over the same store directory — with every in-memory cache
// wiped, as a real restart would — must re-enqueue the interrupted job
// from its orphaned checkpoint and finish it as a resume, and must
// replay the completed job's record stream byte-identically from disk
// without executing any evolution.
func TestCrashRecoveryReplay(t *testing.T) {
	resetPersistence(t)
	root, ckpt := t.TempDir(), t.TempDir()
	ctx := context.Background()

	stA, err := store.Open(store.Config{Root: root, CheckpointDir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	schedA, cA, srvA := startDaemon(t, Config{
		MaxRunning: 2, MaxQueue: 8,
		CheckpointDir: ckpt, CheckpointEvery: 1,
		Store: stA,
	})

	// Life A: compute the fast job to completion; it commits to disk.
	fast := Spec{Workload: "cartpole", Population: 20, Generations: 3, Seed: seedRecovery}
	sub, err := cA.Submit(ctx, fast)
	if err != nil {
		t.Fatal(err)
	}
	var origRecs []string
	finalA, err := cA.Watch(ctx, sub.ID, func(r hwsim.Record) error {
		origRecs = append(origRecs, marshalRec(t, r))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if finalA.State != StateDone || finalA.Stored {
		t.Fatalf("first life: state %s stored=%v, want done stored=false", finalA.State, finalA.Stored)
	}

	// Get the slow job a couple of generations in, then "crash": drain
	// with near-zero grace checkpoints and cancels it, and the HTTP
	// server goes away. Only the disk outlives this.
	slow := slowSpec(seedRecovery+1, 8)
	subSlow, err := cA.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, cA, subSlow.ID, 30*time.Second, func(s Status) bool { return s.Generations >= 2 })
	schedA.Drain(10 * time.Millisecond)
	srvA.Close()

	// A real restart loses every in-memory tier; simulate that.
	experiments.UseStore(nil)
	experiments.ResetCaches()

	// Life B over the same directories.
	stB, err := store.Open(store.Config{Root: root, CheckpointDir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	schedB, cB, _ := startDaemon(t, Config{
		MaxRunning: 2, MaxQueue: 8,
		CheckpointDir: ckpt, CheckpointEvery: 1,
		Store: stB,
	})
	rep, requeued := schedB.Recover()
	if len(rep.Interrupted) != 1 || rep.Interrupted[0].String() != slow.withDefaults().key().String() {
		t.Fatalf("recovery found interrupted %v, want [%s]", rep.Interrupted, slow.withDefaults().key())
	}
	if rep.Verified != 1 {
		t.Fatalf("recovery verified %d artifacts, want 1 (the fast job)", rep.Verified)
	}
	if len(requeued) != 1 {
		t.Fatalf("recovery re-enqueued %d jobs, want 1", len(requeued))
	}

	// The interrupted job must finish as a checkpoint resume, not a
	// from-scratch run.
	finSlow := waitStatus(t, cB, requeued[0].ID, 60*time.Second, func(s Status) bool { return s.State.Terminal() })
	if finSlow.State != StateDone || !finSlow.Resumed {
		t.Fatalf("recovered job: state %s resumed=%v (err %q), want done resumed=true",
			finSlow.State, finSlow.Resumed, finSlow.Error)
	}

	// The completed job must replay from disk: stored, zero evolutions,
	// byte-identical record stream.
	before := experiments.EvolutionsExecuted()
	sub2, err := cB.Submit(ctx, fast)
	if err != nil {
		t.Fatal(err)
	}
	var replayRecs []string
	finalB, err := cB.Watch(ctx, sub2.ID, func(r hwsim.Record) error {
		replayRecs = append(replayRecs, marshalRec(t, r))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if finalB.State != StateDone || !finalB.Stored {
		t.Fatalf("replayed job: state %s stored=%v (err %q), want done stored=true",
			finalB.State, finalB.Stored, finalB.Error)
	}
	if d := experiments.EvolutionsExecuted() - before; d != 0 {
		t.Fatalf("store replay executed %d evolutions, want 0", d)
	}
	if finalB.Solved != finalA.Solved || finalB.Generations != finalA.Generations ||
		finalB.BestFitness != finalA.BestFitness {
		t.Fatalf("replayed outcome %+v differs from original %+v", finalB, finalA)
	}
	if len(replayRecs) != len(origRecs) {
		t.Fatalf("replay streamed %d records, original %d", len(replayRecs), len(origRecs))
	}
	for i := range origRecs {
		if replayRecs[i] != origRecs[i] {
			t.Fatalf("record %d differs across restart:\n  original: %s\n  replayed: %s",
				i, origRecs[i], replayRecs[i])
		}
	}
}

// TestStoreFaultDegradationNeverFailsJobs: with bit rot injected on
// every read, every store lookup and verification fails — and no job
// may notice. Corruption degrades to recompute: both submissions
// complete, the rotted artifacts land in quarantine, and the corrupt
// counter moves.
func TestStoreFaultDegradationNeverFailsJobs(t *testing.T) {
	resetPersistence(t)
	st, err := store.Open(store.Config{
		Root: t.TempDir(),
		FS:   &store.FaultFS{Inner: store.OSFS{}, Seed: 7, BitRotEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := startDaemon(t, Config{MaxRunning: 1, MaxQueue: 4, Store: st})
	ctx := context.Background()
	spec := Spec{Workload: "cartpole", Population: 24, Generations: 3, Seed: seedRecovery + 50}

	for life := 0; life < 2; life++ {
		// Between lives, wipe the memory tiers so the second submission
		// must go through the (rotting) disk store.
		if life > 0 {
			experiments.ResetCaches()
			experiments.UseStore(st)
		}
		before := experiments.EvolutionsExecuted()
		sub, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Watch(ctx, sub.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone || final.Stored {
			t.Fatalf("life %d: state %s stored=%v (err %q), want done stored=false under total bit rot",
				life, final.State, final.Stored, final.Error)
		}
		if d := experiments.EvolutionsExecuted() - before; d != 1 {
			t.Fatalf("life %d: %d evolutions, want 1 (degrade to recompute)", life, d)
		}
	}
	if got := st.Counters().Snapshot().Int("ops/quarantined"); got < 1 {
		t.Fatalf("ops/quarantined = %d after total bit rot, want >= 1", got)
	}
	if q := st.Quarantined(); len(q) < 1 {
		t.Fatal("no quarantined artifacts after bit-rot degradation")
	}
}

// watchSpec submits spec and watches it to its end, returning the final
// status and every streamed record.
func watchSpec(t *testing.T, c *Client, spec Spec) (Status, []string) {
	t.Helper()
	ctx := context.Background()
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var recs []string
	final, err := c.Watch(ctx, sub.ID, func(r hwsim.Record) error {
		recs = append(recs, marshalRec(t, r))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return final, recs
}

// TestFailedCheckpointSaveKeepsJob: a checkpoint only shortens a
// resume, so a save that fails does not fail its job. The daemon's
// checkpoint directory is replaced by a regular file after boot: every
// save fails, the job completes with the uninterrupted record stream,
// and checkpoint_errors counts the failed saves.
func TestFailedCheckpointSaveKeepsJob(t *testing.T) {
	resetPersistence(t)
	spec := Spec{Workload: "mountaincar", Population: 30, Generations: 6, Seed: seedRecovery + 60}
	_, ref, _ := startDaemon(t, Config{MaxRunning: 1, MaxQueue: 4})
	_, want := watchSpec(t, ref, spec)
	experiments.ResetCaches()

	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sched, c, _ := startDaemon(t, Config{MaxRunning: 1, MaxQueue: 4, CheckpointDir: dir, CheckpointEvery: 1})
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	final, got := watchSpec(t, c, spec)
	if final.State != StateDone {
		t.Fatalf("job with failing saves: state %s (err %q), want done", final.State, final.Error)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("streamed %d records differing from the uninterrupted run's %d", len(got), len(want))
	}
	if n := sched.Counters().Snapshot().Int("phases/checkpoint_errors"); n < 1 {
		t.Fatalf("phases/checkpoint_errors = %d, want >= 1", n)
	}
}

// TestCheckpointFaultsNeverFailJobs: a daemon with a store saves its
// checkpoints through the store's FS, so a FaultFS faults them like
// any store file. Under torn writes, then bit rot, then failed writes,
// a job cancelled after a checkpoint save and then resubmitted never
// fails: the damaged or missing checkpoint is no checkpoint, so the
// resubmission recomputes and ends with the uninterrupted run's final
// population.
func TestCheckpointFaultsNeverFailJobs(t *testing.T) {
	resetPersistence(t)
	ctx := context.Background()
	spec := slowSpec(seedRecovery+70, 6)
	key := spec.withDefaults().key()
	shared := experiments.SharedRequest{Workload: key.Workload, Population: key.Population,
		Generations: key.Generations, Seed: key.Seed}
	finalPop := func() []byte {
		t.Helper()
		run, err := experiments.RunShared(shared)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := run.Runner.Pop.Save()
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	want := finalPop()

	for _, tc := range []struct {
		name string
		// saved reports whether a checkpoint file outlives the save the
		// cancellation makes.
		saved bool
		fault func() *store.FaultFS
	}{
		{"torn writes", true, func() *store.FaultFS { return &store.FaultFS{Seed: 3, TornWriteEvery: 1} }},
		{"bit rot", true, func() *store.FaultFS { return &store.FaultFS{Seed: 4, BitRotEvery: 1} }},
		{"failed writes", false, func() *store.FaultFS { return &store.FaultFS{WriteFailEvery: 1} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			experiments.ResetCaches()
			ckpt := t.TempDir()
			ffs := tc.fault()
			ffs.Inner = store.OSFS{}
			st, err := store.Open(store.Config{Root: t.TempDir(), CheckpointDir: ckpt, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			sched, c, _ := startDaemon(t, Config{
				MaxRunning: 1, MaxQueue: 4,
				CheckpointDir: ckpt, CheckpointEvery: 1,
				Store: st,
			})
			sub, err := c.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, c, sub.ID, 30*time.Second, func(s Status) bool { return s.Generations >= 2 })
			if _, err := c.Cancel(ctx, sub.ID); err != nil {
				t.Fatal(err)
			}
			cut := waitStatus(t, c, sub.ID, 30*time.Second, func(s Status) bool { return s.State.Terminal() })
			if cut.State != StateCancelled {
				t.Fatalf("cancelled job: state %s (err %q)", cut.State, cut.Error)
			}
			path := filepath.Join(ckpt, key.String()+".ckpt")
			if _, err := os.Stat(path); (err == nil) != tc.saved {
				t.Fatalf("checkpoint after the cancel: %v, want present=%v", err, tc.saved)
			}
			if n := sched.Counters().Snapshot().Int("phases/checkpoint_errors"); (n > 0) == tc.saved {
				t.Fatalf("phases/checkpoint_errors = %d", n)
			}

			final, _ := watchSpec(t, c, spec)
			if final.State != StateDone {
				t.Fatalf("resubmitted job: state %s (err %q), want done", final.State, final.Error)
			}
			if final.Resumed {
				t.Fatal("resubmitted job resumed from a faulted checkpoint")
			}
			if got := finalPop(); !bytes.Equal(got, want) {
				t.Fatal("final population differs from the uninterrupted run's")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("checkpoint left after the job completed (stat: %v)", err)
			}
		})
	}
}
