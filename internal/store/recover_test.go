package store

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRecoverLeavesRecencyAlone: a boot is not a use. An artifact idle
// for 72 h must still read as idle for 72 h after a new Store recovers
// it, so a 48 h MaxAge evicts it, and the boot counts no hit and no
// bytes read.
func TestRecoverLeavesRecencyAlone(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	root := t.TempDir()
	s := openTest(t, Config{Root: root})
	key := testKey(40)
	if err := s.Put(key, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(s.dirOf(key), manifestFile)
	idle := now.Add(-72 * time.Hour)
	if err := os.Chtimes(manPath, idle, idle); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, Config{Root: root, MaxAge: 48 * time.Hour, Now: func() time.Time { return now }})
	if rep := s2.Recover(); rep.Verified != 1 || rep.Quarantined != 0 {
		t.Fatalf("Recover: %+v", rep)
	}
	info, err := os.Stat(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().Equal(idle) {
		t.Fatalf("Recover moved the manifest mtime from %v to %v", idle, info.ModTime())
	}
	snap := s2.Counters().Snapshot()
	if hits, read := snap.Int("ops/hits"), snap.Int("ops/bytes_read"); hits != 0 || read != 0 {
		t.Fatalf("Recover counted traffic: ops/hits %d, ops/bytes_read %d", hits, read)
	}
	if res := s2.GC(); res.EvictedAge != 1 {
		t.Fatalf("GC after Recover: %+v, want the idle artifact evicted", res)
	}
}

// TestRecoverQuarantinesMissingManifest: a key directory without a
// manifest is no commit, and left in runs/ it makes every recommit of
// its key fail on the rename. Recover moves it aside, so the key
// commits and hits again.
func TestRecoverQuarantinesMissingManifest(t *testing.T) {
	root := t.TempDir()
	s := openTest(t, Config{Root: root})
	key := testKey(41)
	if err := s.Put(key, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(s.dirOf(key), manifestFile)); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, Config{Root: root})
	if rep := s2.Recover(); rep.Verified != 0 || rep.Quarantined != 1 {
		t.Fatalf("Recover: %+v", rep)
	}
	if q := s2.Quarantined(); len(q) != 1 || q[0].Reason != "manifest: missing" {
		t.Fatalf("Quarantined: %+v", q)
	}
	if err := s2.Put(key, Meta{}, testFiles()); err != nil {
		t.Fatalf("Put after Recover: %v", err)
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("Get after recommit: miss")
	}
}

// TestManifestNotARegularFile: a manifest.json that is a directory is
// corruption, not a commit. A boot quarantines its key directory under
// its own reason, the next boot has nothing left to do, and the key
// commits and hits again; without a boot, Get quarantines it and Put
// recommits.
func TestManifestNotARegularFile(t *testing.T) {
	plant := func(t *testing.T, root string, key Key) {
		if err := os.MkdirAll(filepath.Join(root, "runs", key.String(), manifestFile), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	const reason = "manifest: not a regular file"
	t.Run("boot", func(t *testing.T) {
		root, key := t.TempDir(), testKey(42)
		plant(t, root, key)
		s := openTest(t, Config{Root: root})
		if rep := s.Recover(); rep.Verified != 0 || rep.Quarantined != 1 {
			t.Fatalf("first boot: %+v", rep)
		}
		if q := s.Quarantined(); len(q) != 1 || q[0].Reason != reason {
			t.Fatalf("Quarantined: %+v", q)
		}
		s2 := openTest(t, Config{Root: root})
		if rep := s2.Recover(); rep.Quarantined != 0 {
			t.Fatalf("second boot: %+v", rep)
		}
		if err := s2.Put(key, Meta{}, testFiles()); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, ok := s2.Get(key); !ok {
			t.Fatal("Get after recommit: miss")
		}
	})
	t.Run("get", func(t *testing.T) {
		root, key := t.TempDir(), testKey(43)
		plant(t, root, key)
		s := openTest(t, Config{Root: root})
		if s.Has(key) {
			t.Fatal("Has reports a directory manifest as a commit")
		}
		if _, ok := s.Get(key); ok {
			t.Fatal("Get hit a directory manifest")
		}
		if q := s.Quarantined(); len(q) != 1 || q[0].Reason != reason {
			t.Fatalf("Quarantined: %+v", q)
		}
		if err := s.Put(key, Meta{}, testFiles()); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if st := s.Stats(); st.Commits != 1 || st.DuplicateCommits != 0 {
			t.Fatalf("Put did not recommit: %+v", st)
		}
		if _, ok := s.Get(key); !ok {
			t.Fatal("Get after recommit: miss")
		}
	})
}

// TestRecoverBitRot verifies through an FS that rots every read,
// manifests and payload streams alike: no artifact may verify, and
// every one is quarantined.
func TestRecoverBitRot(t *testing.T) {
	root := t.TempDir()
	s := openTest(t, Config{Root: root})
	const n = 6
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(uint64(50+i)), Meta{}, testFiles()); err != nil {
			t.Fatal(err)
		}
	}
	rotten := openTest(t, Config{Root: root, FS: &FaultFS{Inner: OSFS{}, Seed: 3, BitRotEvery: 1}})
	if rep := rotten.Recover(); rep.Verified != 0 || rep.Quarantined != n {
		t.Fatalf("Recover under total bit rot: %+v", rep)
	}
	if st := rotten.Stats(); st.Artifacts != 0 || st.QuarantineEntries != n {
		t.Fatalf("Stats: %+v", st)
	}
}

// flipBit flips one bit in the middle of a file, keeping its size.
func flipBit(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x08
	return os.WriteFile(path, data, 0o644)
}

// TestRecoverUnderTraffic runs Recover over more artifacts than it has
// workers, some corrupt in each way verification catches, while other
// goroutines Get and re-Put the good ones. Traffic leaves the corrupt
// ones to Recover (a Get would quarantine one before Recover lists
// it), and the Puts are duplicate commits, so the set Recover lists is
// fixed and its counts must be exactly the serial ones. Run under
// -race by check.sh.
func TestRecoverUnderTraffic(t *testing.T) {
	root := t.TempDir()
	s := openTest(t, Config{Root: root})
	corrupt := []func(dir string) error{
		func(dir string) error { // another size
			return os.WriteFile(filepath.Join(dir, "trace.txt"), []byte("garbage"), 0o644)
		},
		func(dir string) error { // same size, one bit flipped
			return flipBit(filepath.Join(dir, "population.json"))
		},
		func(dir string) error { // a payload gone
			return os.Remove(filepath.Join(dir, "history.json"))
		},
		func(dir string) error { // the manifest gone
			return os.Remove(filepath.Join(dir, manifestFile))
		},
	}
	var good, bad []Key
	for i := 0; i < 2*runtime.GOMAXPROCS(0)+2*len(corrupt); i++ {
		key := testKey(uint64(60 + i))
		if err := s.Put(key, Meta{}, testFiles()); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 && len(bad) < len(corrupt) {
			if err := corrupt[len(bad)](s.dirOf(key)); err != nil {
				t.Fatal(err)
			}
			bad = append(bad, key)
			continue
		}
		good = append(good, key)
	}

	s2 := openTest(t, Config{Root: root})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := good[i%len(good)]
				if _, ok := s2.Get(key); !ok {
					t.Errorf("Get %s missed during Recover", key)
					return
				}
				if err := s2.Put(key, Meta{}, testFiles()); err != nil {
					t.Errorf("Put during Recover: %v", err)
					return
				}
			}
		}(w)
	}
	rep := s2.Recover()
	close(stop)
	wg.Wait()

	if rep.Verified != len(good) || rep.Quarantined != len(bad) {
		t.Fatalf("Recover under traffic: %d verified, %d quarantined; want %d and %d",
			rep.Verified, rep.Quarantined, len(good), len(bad))
	}
	if got := s2.Counters().Snapshot().Int("ops/quarantined"); got != int64(len(bad)) {
		t.Fatalf("ops/quarantined = %d, want each corrupt artifact moved once (%d)", got, len(bad))
	}
	for _, k := range good {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("good artifact %s lost", k)
		}
	}
	for _, k := range bad {
		if _, ok := s2.Get(k); ok {
			t.Fatalf("corrupt artifact %s served", k)
		}
		if err := s2.Put(k, Meta{}, testFiles()); err != nil {
			t.Fatalf("recommit of %s: %v", k, err)
		}
	}
}
