package experiments

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/store"
)

// paretoReq is the tiny Pareto run these tests resolve. The seed range
// (889xxx) is private to this file.
func paretoReq(seed uint64) ParetoRequest {
	return ParetoRequest{
		Workload:    "cartpole",
		Population:  16,
		Generations: 4,
		Seed:        seed,
		Objectives:  []string{"fitness", "genes", "energy"},
	}
}

func TestJoinSplitObjectives(t *testing.T) {
	v := []string{"fitness", "genes", "energy"}
	j := JoinObjectives(v)
	if j != "fitness+genes+energy" {
		t.Fatalf("JoinObjectives = %q", j)
	}
	back := SplitObjectives(j)
	if len(back) != 3 || back[0] != "fitness" || back[1] != "genes" || back[2] != "energy" {
		t.Fatalf("SplitObjectives = %v", back)
	}
	if SplitObjectives("") != nil {
		t.Fatal("SplitObjectives(\"\") not nil")
	}
}

func TestRunSharedParetoSingleflight(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)

	const callers = 4
	outs := make([]*ParetoOutcome, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = RunSharedPareto(paretoReq(889001))
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
	if len(outs[0].Run.Front) == 0 {
		t.Fatal("empty front")
	}
}

// TestParetoStoreRoundTrip: a Pareto run committed to the store
// replays after a cache reset (the "restart") with no evolution
// executed and a byte-identical result — fronts included.
func TestParetoStoreRoundTrip(t *testing.T) {
	withTestStore(t, store.Config{})
	ResetCaches()

	first, err := RunSharedPareto(paretoReq(889002))
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

	ResetCaches() // drop memory, keep disk: simulated restart
	second, err := RunSharedPareto(paretoReq(889002))
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
		t.Fatal("stored pareto run is not byte-identical to the computed one")
	}
	if EvolutionsExecuted() != 0 {
		t.Fatalf("replay executed %d evolutions, want 0", EvolutionsExecuted())
	}
}

func TestPeekSharedPareto(t *testing.T) {
	withTestStore(t, store.Config{})
	ResetCaches()

	req := paretoReq(889003)
	key := store.Key{Workload: req.Workload, Population: req.Population, Generations: req.Generations,
		Seed: req.Seed, Objectives: JoinObjectives(req.Objectives)}
	if _, _, ok := paretoTier.peek(key); ok {
		t.Fatal("peek hit before anything ran")
	}
	first, err := RunSharedPareto(req)
	if err != nil {
		t.Fatal(err)
	}
	run, stored, ok := paretoTier.peek(key)
	if !ok || stored || run != first.Run {
		t.Fatalf("memory peek: ok=%v stored=%v same=%v", ok, stored, run == first.Run)
	}

	ResetCaches()
	run, stored, ok = paretoTier.peek(key)
	if !ok || !stored {
		t.Fatalf("disk peek: ok=%v stored=%v", ok, stored)
	}
	if run.Seed != req.Seed || JoinObjectives(run.Objectives) != JoinObjectives(req.Objectives) {
		t.Fatalf("disk peek returned the wrong run: %+v", run)
	}
	if EvolutionsExecuted() != 0 {
		t.Fatal("peek executed an evolution")
	}
}

// TestParetoObjectiveOrderIsIdentity: the same tuple with a reordered
// objective vector is a different computation with its own cache and
// store entry.
func TestParetoObjectiveOrderIsIdentity(t *testing.T) {
	withTestStore(t, store.Config{})
	ResetCaches()
	t.Cleanup(ResetCaches)

	a, err := RunSharedPareto(paretoReq(889004))
	if err != nil {
		t.Fatal(err)
	}
	req := paretoReq(889004)
	req.Objectives = []string{"energy", "genes", "fitness"}
	b, err := RunSharedPareto(req)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Computed || !b.Computed {
		t.Fatalf("reordered vector shared a computation: a=%v b=%v", a.Computed, b.Computed)
	}
	if a.Run == b.Run {
		t.Fatal("reordered vector returned the same run object")
	}
}

func TestRunSharedParetoValidates(t *testing.T) {
	req := paretoReq(889005)
	req.Objectives = []string{"fitness"}
	if _, err := RunSharedPareto(req); err == nil {
		t.Fatal("single-objective pareto spec accepted")
	}
	req = paretoReq(889006)
	req.Workload = "nope"
	if _, err := RunSharedPareto(req); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestParetoQuarantineOnBadSchema: a corrupt payload of any run kind
// is quarantined and recomputed rather than replayed. The tier's one
// quarantine path serves all three kinds.
func TestParetoQuarantineOnBadSchema(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  store.Key
		file string
	}{
		{"scalar", store.Key{Workload: "cartpole", Population: 16, Generations: 2, Seed: 889007}, historyFile},
		{"island", store.Key{Workload: "cartpole", Population: 16, Generations: 2, Seed: 889007, Islands: 2, MigrationEvery: 1}, islandsFile},
		{"pareto", store.Key{Workload: "cartpole", Population: 16, Generations: 4, Seed: 889007, Objectives: "fitness+genes+energy"}, paretoFile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := withTestStore(t, store.Config{})
			ResetCaches()

			// Seed the store with a wrong-schema artifact under the run's
			// key (content hashes valid, so only the semantic decode can
			// catch it).
			if err := s.Put(tc.key, store.Meta{}, map[string][]byte{
				tc.file: []byte(`{"schema":"genesys-wrong/9","run":null}`),
			}); err != nil {
				t.Fatal(err)
			}
			out, err := Resolve(JobRequest{Key: tc.key})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Computed || out.Stored {
				t.Fatalf("bad artifact replayed: Computed=%v Stored=%v", out.Computed, out.Stored)
			}
			if len(s.Quarantined()) == 0 {
				t.Fatal("bad artifact not quarantined")
			}
			if _, ok := s.Get(tc.key); !ok {
				t.Fatal("recompute did not recommit")
			}
		})
	}
}

// TestParetoFigure runs the registered experiment end to end.
func TestParetoFigure(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)

	r, err := Run("pareto", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 3 {
		t.Fatalf("%d tables, want one per control workload", len(r.Tables))
	}
	for _, wl := range []string{"cartpole", "mountaincar", "lunarlander"} {
		if v, ok := r.Series[wl+":frontSize"]; !ok || v[0] < 1 {
			t.Fatalf("%s front missing or empty: %v", wl, r.Series)
		}
	}
}
