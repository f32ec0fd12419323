package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hw/hwsim"
	"repro/internal/neat"
	"repro/internal/store"
)

// persistReq is the tiny run the persistence tests evolve. The seed
// range (777xxx) is private to this file so no other test's cache
// entries alias these keys.
func persistReq(seed uint64) SharedRequest {
	return SharedRequest{Workload: "cartpole", Population: 16, Generations: 2, Seed: seed}
}

// plantCheckpoint saves generation 1 of key's run, evolved under a
// one-generation key, as key's checkpoint in dir, and returns the
// handle on dir. The caches are reset afterwards.
func plantCheckpoint(t *testing.T, dir string, key store.Key) *store.Checkpoints {
	t.Helper()
	g1 := SharedRequest{Workload: key.Workload, Population: key.Population, Generations: 1, Seed: key.Seed}
	r, err := RunShared(g1)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := r.Runner.Pop.Save()
	if err != nil {
		t.Fatal(err)
	}
	ResetCaches()
	ckpts := store.NewCheckpoints(dir, store.OSFS{})
	if err := ckpts.Save(key, doc); err != nil {
		t.Fatal(err)
	}
	return ckpts
}

func withTestStore(t *testing.T, cfg store.Config) *store.Store {
	t.Helper()
	if cfg.Root == "" {
		cfg.Root = t.TempDir()
	}
	s, err := store.Open(cfg)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	UseStore(s)
	t.Cleanup(func() {
		UseStore(nil)
		ResetCaches()
	})
	return s
}

func traceBytes(t *testing.T, run *SharedRun) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := run.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestStoreRoundTripReplaysIdentically is the durability proof at the
// experiments layer: a run computed once, with the in-memory cache
// dropped (a "restart"), replays from disk with no evolution executed,
// a byte-identical history and trace, and a population that saves to
// the committed population.bin byte for byte. The RAM-game key sends
// 128-input genomes through the decoder.
func TestStoreRoundTripReplaysIdentically(t *testing.T) {
	for _, req := range []SharedRequest{
		persistReq(777001),
		{Workload: "alien-ram", Population: 4, Generations: 1, Seed: 777005},
	} {
		t.Run(req.Workload, func(t *testing.T) {
			s := withTestStore(t, store.Config{})
			ResetCaches()

			first, err := RunShared(req)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Computed || first.Stored {
				t.Fatalf("first run: Computed=%v Stored=%v", first.Computed, first.Stored)
			}
			wantHist, err := json.Marshal(first.Runner.History)
			if err != nil {
				t.Fatal(err)
			}
			wantTrace := traceBytes(t, first)

			ResetCaches() // the restart: memory gone, disk remains

			second, err := RunShared(req)
			if err != nil {
				t.Fatal(err)
			}
			if second.Computed || !second.Stored {
				t.Fatalf("replay: Computed=%v Stored=%v", second.Computed, second.Stored)
			}
			if got := EvolutionsExecuted(); got != 0 {
				t.Fatalf("replay executed %d evolutions", got)
			}
			gotHist, err := json.Marshal(second.Runner.History)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotHist) != string(wantHist) {
				t.Fatalf("replayed history differs:\n%s\n%s", gotHist, wantHist)
			}
			if second.Solved != first.Solved {
				t.Fatalf("solved: %v vs %v", second.Solved, first.Solved)
			}
			if got := traceBytes(t, second); got != wantTrace {
				t.Fatal("replayed trace differs")
			}
			art, ok := s.Get(store.Key{Workload: req.Workload, Population: req.Population,
				Generations: req.Generations, Seed: req.Seed})
			if !ok {
				t.Fatal("run not committed")
			}
			pop, err := second.Runner.Pop.Save()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pop, art.Files[populationFile]) {
				t.Fatalf("replayed population saves to %d bytes that differ from the %d committed",
					len(pop), len(art.Files[populationFile]))
			}
		})
	}
}

// TestStoreCorruptionRecomputes pins graceful degradation end to end:
// a quarantined artifact turns the disk hit back into a compute, and
// the recompute recommits.
func TestStoreCorruptionRecomputes(t *testing.T) {
	s := withTestStore(t, store.Config{})
	ResetCaches()

	if _, err := RunShared(persistReq(777002)); err != nil {
		t.Fatal(err)
	}
	key := store.Key{Workload: "cartpole", Population: 16, Generations: 2, Seed: 777002}
	s.QuarantineKey(key, "test poison")
	ResetCaches()

	got, err := RunShared(persistReq(777002))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Computed || got.Stored {
		t.Fatalf("after quarantine: Computed=%v Stored=%v", got.Computed, got.Stored)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("recompute did not recommit")
	}
}

// TestStoreSkipsResumedRuns pins the no-commit-on-resume rule: a run
// that restored a checkpoint carries a truncated history and must not
// enter the store.
func TestStoreSkipsResumedRuns(t *testing.T) {
	s := withTestStore(t, store.Config{})
	ResetCaches()

	// Produce a mid-run checkpoint for the 2-generation key: evolve the
	// same seed one generation and save its population as the
	// 2-generation key's checkpoint.
	key := store.Key{Workload: "cartpole", Population: 16, Generations: 2, Seed: 777003}
	full := persistReq(777003)
	full.Checkpoints = plantCheckpoint(t, t.TempDir(), key)
	full.CheckpointEvery = 1
	res, err := RunShared(full)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("run did not resume from the planted checkpoint")
	}
	if s.Has(key) {
		t.Fatal("resumed run was committed to the store")
	}
}

// TestUnreadableCheckpointRecomputes: a checkpoint that does not
// restore never fails its key, whether it fails its digest (a torn or
// foreign file) or carries a valid digest over a document that does
// not restore. The run starts fresh, matches an uninterrupted run,
// commits to the store, and the file is removed.
func TestUnreadableCheckpointRecomputes(t *testing.T) {
	ResetCaches()
	ref, err := RunShared(persistReq(777006))
	if err != nil {
		t.Fatal(err)
	}
	wantHist, err := json.Marshal(ref.Runner.History)
	if err != nil {
		t.Fatal(err)
	}
	key := store.Key{Workload: "cartpole", Population: 16, Generations: 2, Seed: 777006}
	garbage := []byte(`{"generation":3,"genomes":[{"id":`)

	for _, digested := range []bool{false, true} {
		s := withTestStore(t, store.Config{})
		ResetCaches()
		req := persistReq(777006)
		dir := t.TempDir()
		req.Checkpoints, req.CheckpointEvery = store.NewCheckpoints(dir, store.OSFS{}), 1
		ckpt := filepath.Join(dir, key.String()+".ckpt")
		if digested {
			err = req.Checkpoints.Save(key, garbage)
		} else {
			err = os.WriteFile(ckpt, garbage, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunShared(req)
		if err != nil {
			t.Fatalf("digested=%v: unreadable checkpoint failed the run: %v", digested, err)
		}
		if got.Resumed {
			t.Fatalf("digested=%v: run reports resuming from an unreadable checkpoint", digested)
		}
		gotHist, err := json.Marshal(got.Runner.History)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotHist) != string(wantHist) {
			t.Fatalf("digested=%v: history differs from the uninterrupted run:\n%s\n%s", digested, gotHist, wantHist)
		}
		if !s.Has(key) {
			t.Fatalf("digested=%v: recomputed run was not committed", digested)
		}
		if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
			t.Fatalf("digested=%v: unreadable checkpoint left behind (stat: %v)", digested, err)
		}
	}
}

// TestFlippedCheckpointBitRecomputes: one weight bit flipped in a saved
// checkpoint leaves a document that still restores, into a different
// run. The digest refuses it, so the resubmitted run does not resume
// and ends with the uninterrupted run's final population.
func TestFlippedCheckpointBitRecomputes(t *testing.T) {
	ResetCaches()
	key := store.Key{Workload: "cartpole", Population: 16, Generations: 2, Seed: 777009}
	ref, err := RunShared(persistReq(key.Seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Runner.Pop.Save()
	if err != nil {
		t.Fatal(err)
	}
	ResetCaches()

	dir := t.TempDir()
	ckpts := plantCheckpoint(t, dir, key)
	// Flip the sign bit of the first genome's first weight: the file
	// becomes the document saved with that weight negated, followed by
	// the original digest.
	doc, _ := ckpts.Load(key)
	pop, err := neat.Restore(doc)
	if err != nil {
		t.Fatal(err)
	}
	pop.Genomes[0].Conns[0].Weight *= -1
	flipped, err := pop.Save()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.String()+".ckpt")
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(flipped, file[len(doc):]...), 0o644); err != nil {
		t.Fatal(err)
	}

	req := persistReq(key.Seed)
	req.Checkpoints, req.CheckpointEvery = ckpts, 1
	got, err := RunShared(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Resumed {
		t.Fatal("the run resumed from a checkpoint with a flipped bit")
	}
	final, err := got.Runner.Pop.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, want) {
		t.Fatal("final population differs from the uninterrupted run's")
	}
}

// TestEarlierSchemaRecomputes: an artifact committed by an earlier
// build fails decoding on its first hit. It is quarantined with a
// reason that names what failed, and the run recomputes and commits a
// fresh artifact under the key. The scalar artifact is a
// genesys-run/1 history.json beside a JSON population.json; the island
// and Pareto ones are the genesys-island/1 and genesys-pareto/1
// documents of goldenKeys as the build before the binary genome record
// wrote them (testdata/schema1), with JSON genome objects where
// base64 records now go.
func TestEarlierSchemaRecomputes(t *testing.T) {
	ResetCaches()
	req := persistReq(777007)
	ref, err := RunShared(req)
	if err != nil {
		t.Fatal(err)
	}
	history, err := json.Marshal(&historyDoc{Schema: "genesys-run/1", Seed: req.Seed, History: ref.Runner.History})
	if err != nil {
		t.Fatal(err)
	}
	// The history's schema check fails first, so the population file
	// is never read; it holds no genomes.
	population, err := json.Marshal(map[string]any{"config": ref.Runner.Pop.Config, "generation": ref.Runner.Pop.Generation})
	if err != nil {
		t.Fatal(err)
	}
	earlier := func(name string) map[string][]byte {
		b, err := os.ReadFile(filepath.Join("testdata", "schema1", name))
		if err != nil {
			t.Fatal(err)
		}
		return map[string][]byte{name: b}
	}
	for _, tc := range []struct {
		name   string
		key    store.Key
		files  map[string][]byte
		reason string   // what the quarantine REASON names
		fresh  []string // the fresh artifact's files, the first schema-stamped
		schema string
	}{
		{"scalar", store.Key{Workload: "cartpole", Population: 16, Generations: 2, Seed: req.Seed},
			map[string][]byte{historyFile: history, "population.json": population, traceFile: []byte(traceBytes(t, ref))},
			"genesys-run/1", []string{historyFile, populationFile, traceFile}, runSchema},
		{"island", goldenKeys[1], earlier(islandsFile), islandsFile, []string{islandsFile}, islandSchema},
		{"pareto", goldenKeys[2], earlier(paretoFile), paretoFile, []string{paretoFile}, paretoSchema},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := withTestStore(t, store.Config{})
			ResetCaches()
			if err := s.Put(tc.key, store.Meta{Generations: 2}, tc.files); err != nil {
				t.Fatal(err)
			}
			out, err := Resolve(JobRequest{Key: tc.key})
			if err != nil {
				t.Fatal(err)
			}
			if out.Stored || !out.Computed {
				t.Fatalf("Stored=%v Computed=%v, want a recompute", out.Stored, out.Computed)
			}
			q := s.Quarantined()
			if len(q) != 1 || !strings.Contains(q[0].Reason, tc.reason) {
				t.Fatalf("quarantine %+v, want one entry whose reason names %s", q, tc.reason)
			}
			art, ok := s.Get(tc.key)
			if !ok || len(art.Files) != len(tc.fresh) {
				t.Fatalf("no fresh artifact under the key: %v", art)
			}
			for _, name := range tc.fresh {
				if art.Files[name] == nil {
					t.Fatalf("fresh artifact lacks %s", name)
				}
			}
			if stamp := `{"schema":"` + tc.schema + `"`; !bytes.HasPrefix(art.Files[tc.fresh[0]], []byte(stamp)) {
				t.Fatalf("fresh %s does not start %s", tc.fresh[0], stamp)
			}
		})
	}
}

// TestMetaRecordsTheJobsBest: an artifact's Meta records the best
// fitness its job reported, which is the best generation's, also for a
// run whose last generation fell below it.
func TestMetaRecordsTheJobsBest(t *testing.T) {
	s := withTestStore(t, store.Config{})
	ResetCaches()
	key := store.Key{Workload: "alien-ram", Population: 50, Generations: 5, Seed: 2}
	out, err := Resolve(JobRequest{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	run, _, ok := runTier.peek(key)
	if !ok {
		t.Fatal("the run is not in the cache")
	}
	if h := run.runner.History; h[len(h)-1].MaxFitness >= out.Best {
		t.Fatalf("the last generation (%v) is the best (%v); the case needs one below it", h[len(h)-1].MaxFitness, out.Best)
	}
	art, ok := s.Get(key)
	if !ok {
		t.Fatal("run not committed")
	}
	if art.Meta.BestFitness != out.Best {
		t.Fatalf("Meta.BestFitness %v, the job reported %v", art.Meta.BestFitness, out.Best)
	}
}

// TestIslandBestIsTheHistorysBest: an island job reports, and a fresh
// commit's Meta records, the best generation in any island's history,
// not the best last generation. In the golden island run, island 1
// reached 10 at generation 0 and no island ends above 9.667.
func TestIslandBestIsTheHistorysBest(t *testing.T) {
	s := withTestStore(t, store.Config{})
	ResetCaches()
	key := goldenKeys[1]
	out, err := Resolve(JobRequest{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	art, ok := s.Get(key)
	if !ok {
		t.Fatal("run not committed")
	}
	if out.Best != 10 || art.Meta.BestFitness != 10 {
		t.Fatalf("job best %v, Meta.BestFitness %v, want 10", out.Best, art.Meta.BestFitness)
	}
}

// TestPhasesChargeCheckpointAndCommit: a checkpointed computation
// charges its checkpoints and its store commit to the request's phase
// counters; a memory hit and a store hit of the same run charge
// neither.
func TestPhasesChargeCheckpointAndCommit(t *testing.T) {
	withTestStore(t, store.Config{})
	ResetCaches()
	req := persistReq(777004)
	req.Checkpoints = store.NewCheckpoints(t.TempDir(), store.OSFS{})
	req.CheckpointEvery = 1
	for _, step := range []struct {
		name          string
		reset, charge bool
	}{
		{"compute", false, true},
		{"memory hit", false, false},
		{"store hit", true, false},
	} {
		if step.reset {
			ResetCaches()
		}
		req.Phases = hwsim.New("phases")
		run, err := RunShared(req)
		if err != nil {
			t.Fatal(err)
		}
		if run.Computed != step.charge || run.Stored != step.reset {
			t.Fatalf("%s: Computed=%v Stored=%v", step.name, run.Computed, run.Stored)
		}
		for _, name := range []string{"checkpoint_ns", "commit_ns"} {
			if got := req.Phases.IntValue(name); (got > 0) != step.charge {
				t.Errorf("%s: %s = %d", step.name, name, got)
			}
		}
	}
}

// goldenKeys name the artifacts under testdata/golden: one tiny run of
// each kind. The scalar one was committed by the first build of schema
// genesys-run/2, the island and Pareto ones by the first build of
// genesys-island/2 and genesys-pareto/2. They pin that the key strings,
// payload file names and schemas of existing stores still load.
var goldenKeys = []store.Key{
	{Workload: "cartpole", Population: 8, Generations: 2, Seed: 5},
	{Workload: "cartpole", Population: 8, Generations: 2, Seed: 5, Islands: 2, MigrationEvery: 1},
	{Workload: "cartpole", Population: 8, Generations: 2, Seed: 5, Objectives: "fitness+genes+energy"},
}

// resolveStream resolves key through Resolve and returns its outcome
// and record stream as JSON lines.
func resolveStream(t *testing.T, key store.Key) (JobOutcome, string) {
	t.Helper()
	var buf bytes.Buffer
	out, err := Resolve(JobRequest{Key: key, Sink: hwsim.SinkFunc(func(r hwsim.Record) {
		b, err := json.Marshal(r)
		if err != nil {
			t.Error(err)
		}
		buf.Write(append(b, '\n'))
	})})
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	return out, buf.String()
}

// TestGoldenArtifactsReplay loads the golden artifacts as store hits
// with no evolution executed, and checks that each replays the record
// stream and outcome of a fresh compute byte for byte and that the
// fresh compute commits byte-identical payloads.
func TestGoldenArtifactsReplay(t *testing.T) {
	root := t.TempDir()
	for _, key := range goldenKeys {
		src := filepath.Join("testdata", "golden", "runs", key.String())
		dst := filepath.Join(root, "runs", key.String())
		files, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(src, f.Name()))
			if err == nil {
				err = os.WriteFile(filepath.Join(dst, f.Name()), b, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	golden := withTestStore(t, store.Config{Root: root})
	ResetCaches()

	outs := make([]JobOutcome, len(goldenKeys))
	streams := make([]string, len(goldenKeys))
	for i, key := range goldenKeys {
		outs[i], streams[i] = resolveStream(t, key)
		if !outs[i].Stored || outs[i].Computed {
			t.Fatalf("%s: Stored=%v Computed=%v, want a store hit", key, outs[i].Stored, outs[i].Computed)
		}
	}
	if n := EvolutionsExecuted(); n != 0 {
		t.Fatalf("golden replay executed %d evolutions", n)
	}

	fresh := withTestStore(t, store.Config{})
	ResetCaches()
	for i, key := range goldenKeys {
		out, stream := resolveStream(t, key)
		if !out.Computed {
			t.Fatalf("%s: fresh resolve did not compute", key)
		}
		if stream != streams[i] {
			t.Fatalf("%s: golden stream differs from a fresh compute:\n%s\n%s", key, streams[i], stream)
		}
		out.Computed, out.Stored = false, true
		if out != outs[i] {
			t.Fatalf("%s: golden outcome %+v, fresh %+v", key, outs[i], out)
		}
		want, _ := golden.Get(key)
		got, ok := fresh.Get(key)
		if !ok || len(got.Files) != len(want.Files) {
			t.Fatalf("%s: fresh commit has files %v, golden %v", key, got, want)
		}
		for name, b := range want.Files {
			if !bytes.Equal(got.Files[name], b) {
				t.Fatalf("%s: fresh %s differs from golden", key, name)
			}
		}
	}
}

// BenchmarkDecodeRun measures the decode of one store hit of a RAM-game
// run (alien-ram, pop 50, 2 generations, about 2.2 MB of population),
// the work a replayed job pays after the store's read and checksum.
func BenchmarkDecodeRun(b *testing.B) {
	key := store.Key{Workload: "alien-ram", Population: 50, Generations: 2, Seed: 777006}
	e, _, err := computeRun(key, &JobRequest{Key: key})
	if err != nil {
		b.Fatal(err)
	}
	files, err := encodeRun(key, e)
	if err != nil {
		b.Fatal(err)
	}
	art := &store.Artifact{Key: key, Files: files}
	b.SetBytes(int64(len(files[populationFile])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRun(key, art); err != nil {
			b.Fatal(err)
		}
	}
}
