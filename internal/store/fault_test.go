package store

import (
	"bytes"
	"errors"
	"io"
	"math/bits"
	"path/filepath"
	"testing"
)

// TestTornWriteDegradesToMiss commits through an FS that tears writes:
// the manifest (written last) or a payload lands truncated. Whatever
// tore, the reader must never see wrong data — only a quarantine-then-
// miss, after which a clean recommit restores service.
func TestTornWriteDegradesToMiss(t *testing.T) {
	for _, every := range []int{1, 2, 3, 4} {
		root := t.TempDir()
		ffs := &FaultFS{Inner: OSFS{}, Seed: uint64(every), TornWriteEvery: every}
		s, err := Open(Config{Root: root, FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		key := testKey(uint64(20 + every))
		meta := Meta{Solved: true, BestFitness: 7}
		s.Put(key, meta, testFiles()) // may "succeed" with torn bytes on disk

		art, ok := s.Get(key)
		if ok {
			// Only acceptable if the surviving bytes verify exactly — which
			// with a strict-prefix tear of non-empty files cannot happen for
			// the torn file, so a hit means every torn write missed this
			// artifact's files. Verify content integrity regardless.
			if art.Meta != meta {
				t.Fatalf("every=%d: torn artifact served with wrong meta: %+v", every, art.Meta)
			}
			continue
		}
		// Degraded to a miss: the key must be free for recompute on a
		// healthy disk.
		s2, err := Open(Config{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Put(key, meta, testFiles()); err != nil {
			t.Fatalf("every=%d: recommit after torn write: %v", every, err)
		}
		if got, ok := s2.Get(key); !ok || got.Meta != meta {
			t.Fatalf("every=%d: recompute path broken: ok=%v", every, ok)
		}
	}
}

// TestBitRotQuarantines serves reads through a bit-flipping FS: every
// read is rotten, so the verified Get must quarantine and miss, never
// return flipped bytes.
func TestBitRotQuarantines(t *testing.T) {
	root := t.TempDir()
	s, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(30)
	if err := s.Put(key, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}

	ffs := &FaultFS{Inner: OSFS{}, Seed: 99, BitRotEvery: 1}
	rotten, err := Open(Config{Root: root, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rotten.Get(key); ok {
		t.Fatal("Get served bit-rotten data")
	}
	if st := rotten.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats: %+v", st)
	}
}

// TestDiskFullFailsCommitCleanly fails writes with ErrDiskFull: the
// commit must report the error, leave no staging garbage, and leave
// the store serving.
func TestDiskFullFailsCommitCleanly(t *testing.T) {
	root := t.TempDir()
	ffs := &FaultFS{Inner: OSFS{}, WriteFailEvery: 1}
	s, err := Open(Config{Root: root, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(31)
	if err := s.Put(key, Meta{}, testFiles()); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("Put: %v, want ErrDiskFull", err)
	}
	st := s.Stats()
	if st.CommitErrors != 1 || st.Artifacts != 0 {
		t.Fatalf("Stats: %+v", st)
	}
	entries, err := s.fs.ReadDir(s.tmpDir())
	if err != nil || len(entries) != 0 {
		t.Fatalf("tmp not clean: %d entries, err %v", len(entries), err)
	}
	// Disk recovers: the same store commits fine.
	ffs.WriteFailEvery = 0
	if err := s.Put(key, Meta{}, testFiles()); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("Get after recovery")
	}
}

// TestFaultsAreDeterministic pins the FaultFS contract: the same seed
// and schedule corrupt the same bytes.
func TestFaultsAreDeterministic(t *testing.T) {
	run := func() ([]byte, bool) {
		root := t.TempDir()
		s, err := Open(Config{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		key := testKey(32)
		if err := s.Put(key, Meta{}, testFiles()); err != nil {
			t.Fatal(err)
		}
		ffs := &FaultFS{Inner: OSFS{}, Seed: 7, BitRotEvery: 2}
		data1, err1 := ffs.ReadFile(s.dirOf(key) + "/history.json")
		if err1 != nil {
			t.Fatal(err1)
		}
		data2, err2 := ffs.ReadFile(s.dirOf(key) + "/history.json")
		if err2 != nil {
			t.Fatal(err2)
		}
		// Read 1 clean, read 2 rotten (every 2nd).
		return data2, string(data1) == string(data2)
	}
	a, sameA := run()
	b, sameB := run()
	if sameA || sameB {
		t.Fatal("BitRotEvery=2 did not rot the second read")
	}
	if string(a) != string(b) {
		t.Fatalf("same seed rotted different bytes:\n%q\n%q", a, b)
	}
}

// TestBitRotStreams pins Open's half of BitRotEvery: Open and ReadFile
// share one read count, and the Nth read flips the same single bit
// whichever call makes it and however its stream is chunked.
func TestBitRotStreams(t *testing.T) {
	s := openTest(t, Config{})
	key := testKey(33)
	if err := s.Put(key, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.dirOf(key), "history.json")
	clean := testFiles()["history.json"]
	stream := func(ffs *FaultFS, chunk int) []byte {
		f, err := ffs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var out []byte
		buf := make([]byte, chunk)
		for {
			n, err := f.Read(buf)
			out = append(out, buf[:n]...)
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh := func() *FaultFS { return &FaultFS{Inner: OSFS{}, Seed: 7, BitRotEvery: 2} }

	byRead := fresh()
	byRead.ReadFile(path)
	rotten, err := byRead.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for i := range clean {
		flipped += bits.OnesCount8(clean[i] ^ rotten[i])
	}
	if flipped != 1 {
		t.Fatalf("second ReadFile flipped %d bits, want 1", flipped)
	}
	for _, chunk := range []int{1, 3, 64} {
		ffs := fresh()
		if got := stream(ffs, chunk); !bytes.Equal(got, clean) {
			t.Fatalf("chunk %d: first stream rotten", chunk)
		}
		if got := stream(ffs, chunk); !bytes.Equal(got, rotten) {
			t.Fatalf("chunk %d: second stream %q, want the second ReadFile's %q", chunk, got, rotten)
		}
	}
	mixed := fresh()
	mixed.ReadFile(path)
	if got := stream(mixed, 5); !bytes.Equal(got, rotten) {
		t.Fatalf("Open after ReadFile %q, want the shared count's second read %q", got, rotten)
	}
}
