package evolve

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/hw/hwsim"
	"repro/internal/neat"
)

func islandSpec() IslandSpec {
	return IslandSpec{
		Workload:       "cartpole",
		Population:     32,
		Generations:    8,
		Islands:        2,
		MigrationEvery: 3,
		Seed:           42,
	}
}

func TestIslandSpecValidate(t *testing.T) {
	good := islandSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []IslandSpec{
		func() IslandSpec { s := islandSpec(); s.Islands = 1; return s }(),
		func() IslandSpec { s := islandSpec(); s.MigrationEvery = 0; return s }(),
		func() IslandSpec { s := islandSpec(); s.Population = 33; return s }(), // not divisible
		func() IslandSpec { s := islandSpec(); s.Workload = "no-such"; return s }(),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestIslandSeedDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		s := IslandSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("islands %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if IslandSeed(42, 0) == 42 {
		t.Fatal("island 0 seed equals the base seed; island runs would collide with panmictic runs")
	}
}

func TestRunIslandsDeterministic(t *testing.T) {
	spec := islandSpec()
	a, err := RunIslands(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIslands(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("two RunIslands of the same spec are not byte-identical")
	}
	if len(a.Results) != spec.Islands {
		t.Fatalf("got %d island results, want %d", len(a.Results), spec.Islands)
	}
	for i, ir := range a.Results {
		if ir.Island != i {
			t.Fatalf("results out of order: slot %d holds island %d", i, ir.Island)
		}
		if len(ir.History) == 0 || len(ir.History) > spec.Generations {
			t.Fatalf("island %d: %d generations of history, budget %d", i, len(ir.History), spec.Generations)
		}
		if len(ir.Champion) == 0 {
			t.Fatalf("island %d: no champion exported", i)
		}
	}
	if a.BestIsland < 0 || a.BestIsland >= spec.Islands {
		t.Fatalf("BestIsland = %d", a.BestIsland)
	}
}

func TestRunIslandsDiffersFromPanmictic(t *testing.T) {
	spec := islandSpec()
	run, err := RunIslands(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Same tuple, no islands: a single panmictic population. The island
	// run must be a genuinely different computation (different seeds per
	// island), not a relabeled copy.
	r, err := NewRunner(spec.Workload, configFor(spec), spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), spec.Generations); err != nil {
		t.Fatal(err)
	}
	if len(run.Results[0].History) == len(r.History) {
		same := true
		for i := range r.History {
			if run.Results[0].History[i].MaxFitness != r.History[i].MaxFitness {
				same = false
				break
			}
		}
		if same {
			t.Fatal("island 0 evolved identically to the panmictic run; island seeding is not isolating")
		}
	}
}

// TestMigrationPlanRing pins the migration topology: island i's
// champion lands on island (i+1) mod n.
func TestMigrationPlanRing(t *testing.T) {
	champs := []Champion{
		{Island: 0, Fitness: 1, Genome: []byte{0}},
		{Island: 1, Fitness: 2, Genome: []byte{1}},
		{Island: 2, Fitness: 3, Genome: []byte{2}},
	}
	plan, err := migrationPlan(champs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for dest, ch := range plan {
		want := (dest - 1 + 3) % 3
		if ch.Island != want {
			t.Fatalf("island %d receives champion of %d, want %d", dest, ch.Island, want)
		}
	}
	if _, err := migrationPlan(champs[:2], 3); err == nil {
		t.Fatal("incomplete champion set accepted")
	}
	dup := append([]Champion(nil), champs...)
	dup[1].Island = 0
	if _, err := migrationPlan(dup, 3); err == nil {
		t.Fatal("duplicate island accepted")
	}
}

// TestIslandGroupSplitMatchesReference drives two half-groups through
// DriveIslands and checks the result matches the single-group
// reference — the in-process form of the distributed coordinator's
// contract.
func TestIslandGroupSplitMatchesReference(t *testing.T) {
	spec := islandSpec()
	want, err := RunIslands(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	ga, err := NewIslandGroup(spec, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := NewIslandGroup(spec, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DriveIslands(context.Background(), spec, []IslandShard{ga, gb})
	if err != nil {
		t.Fatal(err)
	}

	jw, _ := json.Marshal(want)
	jg, _ := json.Marshal(got)
	if string(jw) != string(jg) {
		t.Fatal("split island groups diverged from the single-group reference")
	}
}

func TestReplayIslandRecordsOrder(t *testing.T) {
	spec := islandSpec()
	run, err := RunIslands(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var recs []hwsim.Record
	ReplayIslandRecords(run, hwsim.SinkFunc(func(r hwsim.Record) { recs = append(recs, r) }))
	total := 0
	for _, ir := range run.Results {
		total += len(ir.History)
	}
	if len(recs) != total {
		t.Fatalf("replayed %d records, history holds %d", len(recs), total)
	}
	// Canonical order: segment-major, islands ascending within a
	// segment, generations ascending within an island's segment slice.
	lastGen := map[string]int{}
	for _, r := range recs {
		if prev, ok := lastGen[r.Workload]; ok && r.Generation <= prev {
			t.Fatalf("stream %s went backwards: gen %d after %d", r.Workload, r.Generation, prev)
		}
		lastGen[r.Workload] = r.Generation
	}
	if len(lastGen) != spec.Islands {
		t.Fatalf("records tag %d island streams, want %d", len(lastGen), spec.Islands)
	}
}

// configFor builds the panmictic comparison run's config: the whole
// population in one runner.
func configFor(spec IslandSpec) neat.Config {
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = spec.Population
	return cfg
}
