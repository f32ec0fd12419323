package store

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/evolve"
	"repro/internal/neat"
)

// TestParseKeyFilenameIslandFields pins the island-key filename format
// ("-i<islands>-m<migrationEvery>" appended to the base tuple) and its
// round trip.
func TestParseKeyFilenameIslandFields(t *testing.T) {
	good := map[string]Key{
		"cartpole-p64-g30-s42-i4-m5.ckpt": {Workload: "cartpole", Population: 64, Generations: 30, Seed: 42, Islands: 4, MigrationEvery: 5},
		"alien-ram-p32-g8-s7-i2-m1":       {Workload: "alien-ram", Population: 32, Generations: 8, Seed: 7, Islands: 2, MigrationEvery: 1},
		// A workload whose own name ends in an island-like suffix still
		// parses as an ordinary key when the numeric fields don't fit.
		"w-i2-m3-p4-g5-s6": {Workload: "w-i2-m3", Population: 4, Generations: 5, Seed: 6},
	}
	for name, want := range good {
		got, ok := ParseKeyFilename(name)
		if !ok || got != want {
			t.Errorf("ParseKeyFilename(%q) = %+v, %v; want %+v", name, got, ok, want)
		}
	}
	bad := []string{
		"cartpole-p64-g30-s42-i1-m5", // islands < 2
		"cartpole-p64-g30-s42-i2-m0", // migration period < 1
		"cartpole-p64-g30-s42-i02-m5",
	}
	for _, name := range bad {
		if k, ok := ParseKeyFilename(name); ok {
			t.Errorf("ParseKeyFilename(%q) accepted: %+v", name, k)
		}
	}
}

// TestParseKeyFilenameOwnerSuffix pins that the legacy worker-owned
// checkpoint form "<key>~<owner>.ckpt" names no key: a run key has one
// checkpoint file, CheckpointPath's "<key>.ckpt", which parses back.
func TestParseKeyFilenameOwnerSuffix(t *testing.T) {
	for _, name := range []string{
		"cartpole-p64-g30-s42~a1b2c3d4.ckpt",
		"cartpole-p64-g30-s42-i2-m5~ffee0011.ckpt",
		"cartpole-p64-g30-s42~a1b2c3d4",
		"~deadbeef.ckpt",
	} {
		if k, ok := ParseKeyFilename(name); ok {
			t.Errorf("ParseKeyFilename(%q) accepted: %+v", name, k)
		}
	}
	key := Key{Workload: "cartpole", Population: 64, Generations: 30, Seed: 42, Islands: 2, MigrationEvery: 5}
	path := CheckpointPath("ckpt", key)
	if got, ok := ParseKeyFilename(filepath.Base(path)); !ok || got != key || filepath.Dir(path) != "ckpt" {
		t.Errorf("CheckpointPath = %q, parses to %+v, %v; want %+v in ckpt", path, got, ok, key)
	}
}

// TestRecoverLeavesLegacyOwnerCheckpoint: a checkpoint that a fleet
// worker of an older daemon left under an owner-suffixed name names no
// key, so Recover neither re-enqueues nor removes it (its job
// recomputes once), and GC ages it out past CheckpointMaxAge like any
// other orphan.
func TestRecoverLeavesLegacyOwnerCheckpoint(t *testing.T) {
	root := t.TempDir()
	ckptDir := filepath.Join(root, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(ckptDir, "cartpole-p64-g30-s42~aaaa0000.ckpt")
	if err := os.WriteFile(legacy, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	s, err := Open(Config{Root: root, CheckpointDir: ckptDir, CheckpointMaxAge: time.Hour,
		Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s.Recover(); len(rep.Interrupted) != 0 || rep.CheckpointsSwept != 0 {
		t.Fatalf("Recover: %+v, want the legacy checkpoint neither re-enqueued nor swept", rep)
	}
	if res := s.GC(); res.CheckpointsSwept != 0 {
		t.Fatalf("GC of a young legacy checkpoint: %+v", res)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Fatalf("legacy checkpoint removed before it aged out: %v", err)
	}
	now = now.Add(2 * time.Hour)
	if res := s.GC(); res.CheckpointsSwept != 1 {
		t.Fatalf("GC past CheckpointMaxAge: %+v", res)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("legacy checkpoint survived its max age: %v", err)
	}
}

func TestKeyStringIslandValidate(t *testing.T) {
	k := Key{Workload: "cartpole", Population: 64, Generations: 30, Seed: 42, Islands: 4, MigrationEvery: 5}
	if got, want := k.String(), "cartpole-p64-g30-s42-i4-m5"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if err := k.validate(); err != nil {
		t.Fatalf("valid island key rejected: %v", err)
	}
	k.Islands = 1
	if err := k.validate(); err == nil {
		t.Fatal("islands=1 accepted")
	}
	k.Islands, k.MigrationEvery = 2, 0
	if err := k.validate(); err == nil {
		t.Fatal("migrationEvery=0 accepted")
	}
}

// TestGCDuringCheckpointSave: a GC pass that lands inside a save must
// leave the save's staging file alone, or the save's rename fails and
// the job with it. A Runner checkpoints every generation into the
// store's checkpoint directory while another goroutine loops GC.
func TestGCDuringCheckpointSave(t *testing.T) {
	ckptDir := t.TempDir()
	s := openTest(t, Config{CheckpointDir: ckptDir, CheckpointMaxAge: time.Hour})
	key := Key{Workload: "alien-ram", Population: 50, Generations: 6, Seed: 7}
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = key.Population
	r, err := evolve.NewRunner(key.Workload, cfg, key.Seed)
	if err != nil {
		t.Fatal(err)
	}
	r.CheckpointPath = CheckpointPath(ckptDir, key)
	r.CheckpointEvery = 1

	stop, passes := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				passes <- n
				return
			default:
				s.GC()
				n++
			}
		}
	}()
	_, err = r.Run(context.Background(), key.Generations)
	close(stop)
	n := <-passes
	if err != nil {
		t.Fatalf("run failed under %d concurrent GC passes: %v", n, err)
	}
	if _, err := os.Stat(r.CheckpointPath); err != nil {
		t.Fatalf("the last checkpoint: %v", err)
	}
}

// TestPutSameKeyFromTwoStores: two Stores on one root (two processes
// sharing it) commit one key at once. Their staging directories must
// differ, or one commit renames the other's half-written staging away
// and fails.
func TestPutSameKeyFromTwoStores(t *testing.T) {
	root := t.TempDir()
	stores := []*Store{openTest(t, Config{Root: root}), openTest(t, Config{Root: root})}
	for trial := range 200 {
		key := testKey(uint64(1000 + trial))
		errs := make([]error, len(stores))
		var wg sync.WaitGroup
		for i, s := range stores {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = s.Put(key, Meta{}, testFiles())
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("trial %d: store %d: %v", trial, i, err)
			}
		}
		if _, ok := stores[0].Get(key); !ok {
			t.Fatalf("trial %d: no artifact", trial)
		}
	}
	for i, s := range stores {
		if n := s.Stats().CommitErrors; n != 0 {
			t.Errorf("store %d: %d commit errors", i, n)
		}
	}
}

// gateFS pauses the first manifest write until release is closed,
// holding a commit in flight with its staging directory half written.
type gateFS struct {
	FS
	once             sync.Once
	reached, release chan struct{}
}

func (g *gateFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if filepath.Base(name) == manifestFile {
		g.once.Do(func() {
			close(g.reached)
			<-g.release
		})
	}
	return g.FS.WriteFile(name, data, perm)
}

// TestRecoverKeepsFreshStaging: a staging directory younger than
// staleAfter may be another process's commit in flight. A second
// Store booting on the same root must leave it, and the commit through
// it must land.
func TestRecoverKeepsFreshStaging(t *testing.T) {
	root := t.TempDir()
	gate := &gateFS{FS: OSFS{}, reached: make(chan struct{}), release: make(chan struct{})}
	committer := openTest(t, Config{Root: root, FS: gate})
	key := testKey(50)
	putErr := make(chan error, 1)
	go func() { putErr <- committer.Put(key, Meta{}, testFiles()) }()
	<-gate.reached

	booted := openTest(t, Config{Root: root})
	rep := booted.Recover()
	close(gate.release)
	if err := <-putErr; err != nil {
		t.Fatalf("Put through staging another Store's Recover saw: %v", err)
	}
	if rep.TmpSwept != 0 {
		t.Fatalf("Recover swept live staging: %+v", rep)
	}
	if _, ok := booted.Get(key); !ok {
		t.Fatal("committed artifact missing")
	}
}

// TestGCSweepsStaleTmp: GC, not only a boot, reclaims a crash's
// staging directory once it is older than staleAfter, so a daemon that
// restarted within the hour does not keep it for its lifetime. A fresh
// staging directory, another Store's commit in flight, stays and its
// commit lands.
func TestGCSweepsStaleTmp(t *testing.T) {
	root := t.TempDir()
	gate := &gateFS{FS: OSFS{}, reached: make(chan struct{}), release: make(chan struct{})}
	committer := openTest(t, Config{Root: root, FS: gate})
	key := testKey(51)
	putErr := make(chan error, 1)
	go func() { putErr <- committer.Put(key, Meta{}, testFiles()) }()
	<-gate.reached

	orphan := filepath.Join(root, "tmp", testKey(52).String()+".deadbeef-1")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleAfter)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, Config{Root: root})
	res := s.GC()
	close(gate.release)
	if err := <-putErr; err != nil {
		t.Fatalf("Put through staging GC saw: %v", err)
	}
	if res.TmpSwept != 1 || s.Counters().Snapshot().Int("gc/tmp_swept") != 1 {
		t.Fatalf("GC swept %d staging entries (counter %d), want the stale one",
			res.TmpSwept, s.Counters().Snapshot().Int("gc/tmp_swept"))
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("stale staging left behind (stat: %v)", err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("committed artifact missing")
	}
}
