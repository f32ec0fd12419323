package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testKey(seed uint64) Key {
	return Key{Workload: "cartpole", Population: 64, Generations: 30, Seed: seed}
}

func testFiles() map[string][]byte {
	return map[string][]byte{
		"history.json":    []byte(`[{"generation":0,"best":1.5}]`),
		"population.json": []byte(`{"genomes":[]}`),
		"trace.txt":       []byte("G 0\nP 1 2\n"),
	}
}

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Root == "" {
		cfg.Root = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, Config{})
	key := testKey(1)
	meta := Meta{Solved: true, BestFitness: 199.5, Generations: 12}
	files := testFiles()
	if err := s.Put(key, meta, files); err != nil {
		t.Fatalf("Put: %v", err)
	}
	art, ok := s.Get(key)
	if !ok {
		t.Fatal("Get: miss after Put")
	}
	if art.Key != key || art.Meta != meta {
		t.Fatalf("Get: key/meta mismatch: %+v %+v", art.Key, art.Meta)
	}
	if !reflect.DeepEqual(art.Files, files) {
		t.Fatalf("Get: files mismatch: %+v", art.Files)
	}
	st := s.Stats()
	if st.Artifacts != 1 || st.Hits != 1 || st.Commits != 1 {
		t.Fatalf("Stats: %+v", st)
	}
}

func TestGetMiss(t *testing.T) {
	s := openTest(t, Config{})
	if _, ok := s.Get(testKey(2)); ok {
		t.Fatal("Get: hit on empty store")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("Stats: %+v", st)
	}
}

func TestPutDuplicateIsIdempotent(t *testing.T) {
	s := openTest(t, Config{})
	key := testKey(3)
	if err := s.Put(key, Meta{}, testFiles()); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Second commit of the same key: untouched store, accounted as a
	// duplicate, and not an error.
	if err := s.Put(key, Meta{Solved: true}, map[string][]byte{"other.json": []byte("x")}); err != nil {
		t.Fatalf("duplicate Put: %v", err)
	}
	art, ok := s.Get(key)
	if !ok || art.Meta.Solved {
		t.Fatalf("duplicate Put overwrote the artifact: ok=%v meta=%+v", ok, art.Meta)
	}
	if st := s.Stats(); st.Commits != 1 || st.DuplicateCommits != 1 {
		t.Fatalf("Stats: %+v", st)
	}
}

func TestPutRejectsBadInput(t *testing.T) {
	s := openTest(t, Config{})
	bad := []struct {
		name  string
		key   Key
		files map[string][]byte
	}{
		{"empty workload", Key{Population: 1, Generations: 1}, testFiles()},
		{"slash workload", Key{Workload: "a/b", Population: 1, Generations: 1}, testFiles()},
		{"zero pop", Key{Workload: "x", Generations: 1}, testFiles()},
		{"no files", testKey(4), nil},
		{"traversal file", testKey(4), map[string][]byte{"../evil": []byte("x")}},
		{"manifest collision", testKey(4), map[string][]byte{"manifest.json": []byte("x")}},
	}
	for _, tc := range bad {
		if err := s.Put(tc.key, Meta{}, tc.files); err == nil {
			t.Errorf("%s: Put accepted", tc.name)
		}
	}
	if st := s.Stats(); st.Artifacts != 0 {
		t.Fatalf("bad puts left artifacts: %+v", st)
	}
	// Failed puts must not leak staging dirs.
	tmp, err := os.ReadDir(filepath.Join(s.cfg.Root, "tmp"))
	if err != nil || len(tmp) != 0 {
		t.Fatalf("tmp not clean after failed puts: %v entries, err %v", len(tmp), err)
	}
}

func TestCorruptPayloadQuarantines(t *testing.T) {
	s := openTest(t, Config{})
	key := testKey(5)
	if err := s.Put(key, Meta{}, testFiles()); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Flip bytes on disk behind the store's back.
	victim := filepath.Join(s.dirOf(key), "history.json")
	if err := os.WriteFile(victim, []byte(`[{"generation":0,"best":9.9}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("Get: returned corrupt artifact")
	}
	// The key is freed: a fresh Put succeeds and then hits.
	if err := s.Put(key, Meta{}, testFiles()); err != nil {
		t.Fatalf("Put after quarantine: %v", err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("Get: miss after recommit")
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.QuarantineEntries != 1 {
		t.Fatalf("Stats: %+v", st)
	}
	q := s.Quarantined()
	if len(q) != 1 || q[0].Reason == "" {
		t.Fatalf("Quarantined: %+v", q)
	}
	if n := s.PurgeQuarantine(); n != 1 {
		t.Fatalf("PurgeQuarantine: %d", n)
	}
	if len(s.Quarantined()) != 0 {
		t.Fatal("quarantine not empty after purge")
	}
}

func TestCorruptManifestQuarantines(t *testing.T) {
	s := openTest(t, Config{})
	key := testKey(6)
	if err := s.Put(key, Meta{}, testFiles()); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for name, data := range map[string][]byte{
		"truncated": []byte(`{"schema":"genesys-store/1","ke`),
		"wrong schema": []byte(`{"schema":"genesys-store/0","key":{"workload":"cartpole",` +
			`"population":64,"generations":30,"seed":6},"files":[{"name":"x","sha256":"00","size":1}]}`),
		"not json": []byte("\x00\x01\x02"),
	} {
		if err := os.WriteFile(filepath.Join(s.dirOf(key), manifestFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Fatalf("%s: Get trusted a corrupt manifest", name)
		}
		// Re-commit for the next round.
		if err := s.Put(key, Meta{}, testFiles()); err != nil {
			t.Fatalf("%s: recommit: %v", name, err)
		}
	}
	if st := s.Stats(); st.Quarantined != 3 {
		t.Fatalf("Stats: %+v", st)
	}
}

func TestWrongKeyDirectoryQuarantines(t *testing.T) {
	s := openTest(t, Config{})
	a, b := testKey(7), testKey(8)
	if err := s.Put(a, Meta{}, testFiles()); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Simulate a mis-renamed artifact: b's directory holds a's manifest.
	if err := os.Rename(s.dirOf(a), s.dirOf(b)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(b); ok {
		t.Fatal("Get: returned artifact committed under a different key")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats: %+v", st)
	}
}

func TestGCMaxAge(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	s := openTest(t, Config{MaxAge: time.Hour, Now: func() time.Time { return clock }})
	old, fresh := testKey(9), testKey(10)
	if err := s.Put(old, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}
	// The manifest mtime is the commit wall-clock (os-level), so age the
	// old artifact on disk explicitly.
	past := clock.Add(-2 * time.Hour)
	if err := os.Chtimes(filepath.Join(s.dirOf(old), manifestFile), past, past); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fresh, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}
	res := s.GC()
	if res.EvictedAge != 1 || res.BytesReclaimed == 0 {
		t.Fatalf("GC: %+v", res)
	}
	if _, ok := s.Get(old); ok {
		t.Fatal("aged artifact survived GC")
	}
	if _, ok := s.Get(fresh); !ok {
		t.Fatal("fresh artifact evicted")
	}
}

func TestGCMaxBytesEvictsLRU(t *testing.T) {
	s := openTest(t, Config{MaxBytes: 1}) // everything is over budget
	k1, k2 := testKey(11), testKey(12)
	if err := s.Put(k1, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}
	// Make k1 the most recently used despite its older commit: a hit
	// stamps recency.
	old := time.Now().Add(-time.Hour)
	for _, k := range []Key{k1, k2} {
		if err := os.Chtimes(filepath.Join(s.dirOf(k), manifestFile), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(k1); !ok {
		t.Fatal("Get k1")
	}
	res := s.GC()
	// Budget of 1 byte cannot be met while any artifact remains, so both
	// go — but k2 (older mtime) must be selected first.
	if res.EvictedSize != 2 {
		t.Fatalf("GC: %+v", res)
	}
	if st := s.Stats(); st.Artifacts != 0 {
		t.Fatalf("Stats: %+v", st)
	}

	// And with a budget that one artifact fits under (each is ~750
	// bytes here), only the LRU one is evicted.
	s2 := openTest(t, Config{MaxBytes: 1000})
	if err := s2.Put(k1, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(k2, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{k1, k2} {
		if err := os.Chtimes(filepath.Join(s2.dirOf(k), manifestFile), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s2.Get(k1); !ok { // k1 is now MRU
		t.Fatal("Get k1")
	}
	res = s2.GC()
	if res.EvictedSize != 1 {
		t.Fatalf("GC: %+v", res)
	}
	if _, ok := s2.Get(k1); !ok {
		t.Fatal("MRU artifact evicted instead of LRU")
	}
}

func TestGCSweepsCheckpoints(t *testing.T) {
	ckptDir := t.TempDir()
	s := openTest(t, Config{CheckpointDir: ckptDir, CheckpointMaxAge: time.Hour})
	done := testKey(13)
	if err := s.Put(done, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}
	write := func(name string, age time.Duration) string {
		path := filepath.Join(ckptDir, name)
		if err := os.WriteFile(path, []byte("ckpt"), 0o644); err != nil {
			t.Fatal(err)
		}
		if age > 0 {
			old := time.Now().Add(-age)
			if err := os.Chtimes(path, old, old); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	completed := write(done.String()+".ckpt", 0)                        // run finished: sweep
	stale := write("alien-ram-p30-g8-s99.ckpt", 2*time.Hour)            // cancelled, aged out: sweep
	staleTmp := write("cartpole-p64-g30-s2.ckpt.tmp2417", 2*staleAfter) // interrupted save: sweep
	freshTmp := write("cartpole-p64-g30-s1.ckpt.tmp", 0)                // save in flight: keep
	live := write("alien-ram-p30-g8-s100.ckpt", 0)                      // orphan, young: keep
	unrelated := write("notes.txt", 2*time.Hour)                        // not a checkpoint: keep
	res := s.GC()
	if res.CheckpointsSwept != 3 {
		t.Fatalf("GC: %+v", res)
	}
	for _, gone := range []string{completed, stale, staleTmp} {
		if _, err := os.Stat(gone); err == nil {
			t.Errorf("%s survived sweep", filepath.Base(gone))
		}
	}
	for _, kept := range []string{freshTmp, live, unrelated} {
		if _, err := os.Stat(kept); err != nil {
			t.Errorf("%s swept: %v", filepath.Base(kept), err)
		}
	}
}

func TestRecover(t *testing.T) {
	root, ckptDir := t.TempDir(), t.TempDir()
	s := openTest(t, Config{Root: root, CheckpointDir: ckptDir})
	good, bad, doneKey := testKey(14), testKey(15), testKey(16)
	flipped, longer := testKey(18), testKey(19)
	for _, k := range []Key{good, bad, doneKey, flipped, longer} {
		if err := s.Put(k, Meta{}, testFiles()); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt three artifacts (a payload of another size, one bit
	// flipped in place, bytes appended past the manifest's size), orphan
	// a staging dir, plant checkpoints.
	if err := os.WriteFile(filepath.Join(s.dirOf(bad), "trace.txt"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := flipBit(filepath.Join(s.dirOf(flipped), "population.json")); err != nil {
		t.Fatal(err)
	}
	hist := append(testFiles()["history.json"], '\n')
	if err := os.WriteFile(filepath.Join(s.dirOf(longer), "history.json"), hist, 0o644); err != nil {
		t.Fatal(err)
	}
	// The orphan staging dir is older than staleAfter: no live commit
	// can own it.
	orphanStaging := filepath.Join(root, "tmp", "cartpole-p64-g30-s9.1")
	if err := os.MkdirAll(orphanStaging, 0o755); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleAfter)
	if err := os.Chtimes(orphanStaging, old, old); err != nil {
		t.Fatal(err)
	}
	// A directory named like a legacy owner-suffixed checkpoint of
	// good's key: it parses to no key, so Get can never address it.
	alias := good.String() + "~deadbeef"
	if err := os.MkdirAll(filepath.Join(root, "runs", alias), 0o755); err != nil {
		t.Fatal(err)
	}
	// The corrupt artifact's checkpoint must survive: the checkpoint
	// pass runs only once verification has quarantined the artifact.
	orphan := Key{Workload: "alien-ram", Population: 30, Generations: 8, Seed: 200}
	for _, name := range []string{orphan.String() + ".ckpt", doneKey.String() + ".ckpt", bad.String() + ".ckpt"} {
		if err := os.WriteFile(filepath.Join(ckptDir, name), []byte("ckpt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh Store over the same root: the restarted process.
	s2 := openTest(t, Config{Root: root, CheckpointDir: ckptDir})
	rep := s2.Recover()
	if rep.Verified != 2 || rep.Quarantined != 4 || rep.TmpSwept != 1 || rep.CheckpointsSwept != 1 {
		t.Fatalf("Recover: %+v", rep)
	}
	if len(rep.Interrupted) != 2 || rep.Interrupted[0] != orphan || rep.Interrupted[1] != bad {
		t.Fatalf("Interrupted: %+v", rep.Interrupted)
	}
	if _, err := os.Stat(filepath.Join(ckptDir, bad.String()+".ckpt")); err != nil {
		t.Fatalf("checkpoint of the quarantined run: %v", err)
	}
	if _, ok := s2.Get(good); !ok {
		t.Fatal("verified artifact unreadable after recovery")
	}
	for _, k := range []Key{bad, flipped, longer} {
		if _, ok := s2.Get(k); ok {
			t.Fatalf("corrupt artifact %s survived recovery", k)
		}
	}
	// Each corruption was caught by the check that names it.
	want := map[string]string{
		bad.String():     "payload trace.txt: 7 bytes, manifest says 10",
		flipped.String(): "payload population.json: checksum mismatch",
		longer.String():  "payload history.json: more than the 29 bytes the manifest says",
		alias:            "unparseable artifact name",
	}
	for _, q := range s2.Quarantined() {
		name := q.Name[:strings.LastIndex(q.Name, ".")]
		if q.Reason != want[name] {
			t.Errorf("%s quarantined for %q, want %q", name, q.Reason, want[name])
		}
		delete(want, name)
	}
	if len(want) != 0 {
		t.Fatalf("not quarantined: %v", want)
	}
}

func TestParseKeyFilename(t *testing.T) {
	good := map[string]Key{
		"cartpole-p64-g30-s42.ckpt":     {Workload: "cartpole", Population: 64, Generations: 30, Seed: 42},
		"alien-ram-p30-g8-s9001":        {Workload: "alien-ram", Population: 30, Generations: 8, Seed: 9001},
		"a_b-p1-g1-s0":                  {Workload: "a_b", Population: 1, Generations: 1, Seed: 0},
		"x-p2-g3-s18446744073709551615": {Workload: "x", Population: 2, Generations: 3, Seed: 18446744073709551615},
	}
	for name, want := range good {
		got, ok := ParseKeyFilename(name)
		if !ok || got != want {
			t.Errorf("ParseKeyFilename(%q) = %+v, %v; want %+v", name, got, ok, want)
		}
		if got.String() != strings.TrimSuffix(name, ".ckpt") {
			t.Errorf("round trip: %q -> %q", name, got.String())
		}
	}
	bad := []string{
		"", "notes.txt", "cartpole", "cartpole-p64-g30", "cartpole-pX-g30-s42",
		"cartpole-p64-g30-s-1", "cartpole-p0-g30-s42", "-p1-g1-s1",
		"cartpole-p64-g30-s042", // non-canonical number must not round-trip to a different name
	}
	for _, name := range bad {
		if k, ok := ParseKeyFilename(name); ok {
			t.Errorf("ParseKeyFilename(%q) accepted: %+v", name, k)
		}
	}
}

func TestCountersSnapshot(t *testing.T) {
	s := openTest(t, Config{})
	key := testKey(17)
	if err := s.Put(key, Meta{}, testFiles()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("Get")
	}
	rep := s.Counters().Snapshot()
	if got := rep.Int("ops/hits"); got != 1 {
		t.Fatalf("ops/hits = %d", got)
	}
	if got := rep.Int("disk/artifacts"); got != 1 {
		t.Fatalf("disk/artifacts = %d", got)
	}
	if got := rep.Int("disk/bytes"); got <= 0 {
		t.Fatalf("disk/bytes = %d", got)
	}
}
