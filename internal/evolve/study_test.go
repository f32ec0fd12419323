package evolve

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hw/hwsim"
	"repro/internal/neat"
)

func TestRunStudyBasics(t *testing.T) {
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = 40
	st, err := RunStudyContext(context.Background(), "cartpole", cfg, 4, 10, 3, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != 4 {
		t.Fatalf("%d results", len(st.Results))
	}
	for _, r := range st.Results {
		if r.Err != nil {
			t.Fatalf("run %d: %v", r.Run, r.Err)
		}
		if len(r.History) == 0 {
			t.Fatalf("run %d: empty history", r.Run)
		}
	}
	if rate := st.SolveRate(); rate <= 0 {
		t.Fatalf("cartpole solve rate %v in 10 generations", rate)
	}
	if sum := st.GenerationsToSolve(); sum.N == 0 || sum.Min < 1 {
		t.Fatalf("convergence summary %+v", sum)
	}
}

func TestStudyRunsAreIndependent(t *testing.T) {
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = 30
	st, err := RunStudyContext(context.Background(), "mountaincar", cfg, 3, 3, 11, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds should diverge in at least one statistic.
	a := st.Results[0].History[0].MeanFitness
	same := true
	for _, r := range st.Results[1:] {
		if r.History[0].MeanFitness != a {
			same = false
		}
	}
	if same {
		t.Fatal("all runs produced identical gen-0 mean fitness")
	}
}

func TestStudyDeterministicAcrossInvocations(t *testing.T) {
	run := func() float64 {
		cfg := neat.DefaultConfig(1, 1)
		cfg.PopulationSize = 25
		st, err := RunStudyContext(context.Background(), "mario", cfg, 2, 2, 17, StudyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Results[0].History[1].MaxFitness + st.Results[1].History[0].MeanFitness
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("study not deterministic: %v vs %v", a, b)
	}
}

func TestStudyPools(t *testing.T) {
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = 25
	st, err := RunStudyContext(context.Background(), "mario", cfg, 2, 3, 5, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ops := st.OpsPerGeneration()
	if len(ops) == 0 {
		t.Fatal("no op samples")
	}
	for _, v := range ops {
		if v <= 0 {
			t.Fatalf("non-positive op sample %v", v)
		}
	}
	fp := st.FootprintsPerGeneration()
	if len(fp) < len(ops) {
		t.Fatalf("footprint samples %d < op samples %d", len(fp), len(ops))
	}
	curve := st.MeanNormMaxByGeneration()
	if len(curve) == 0 || len(curve) > 3 {
		t.Fatalf("mean curve length %d", len(curve))
	}
}

func TestStudyUnknownWorkload(t *testing.T) {
	if _, err := RunStudyContext(context.Background(), "pong", neat.DefaultConfig(1, 1), 1, 1, 1, StudyOptions{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestStudyAggregatesAllRunErrors(t *testing.T) {
	// Every run fails; the joined error must name each of them rather
	// than the first failure masking the rest.
	st, err := RunStudyContext(context.Background(), "pong", neat.DefaultConfig(1, 1), 3, 1, 1, StudyOptions{})
	if err == nil {
		t.Fatal("want error")
	}
	for run := 0; run < 3; run++ {
		if !strings.Contains(err.Error(), fmt.Sprintf("run %d:", run)) {
			t.Fatalf("error missing run %d: %v", run, err)
		}
	}
	for _, r := range st.Results {
		if r.Err == nil {
			t.Fatalf("run %d recorded no error", r.Run)
		}
	}
}

func TestStudySinkRecordsTagged(t *testing.T) {
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = 30
	log := &hwsim.Log{}
	st, err := RunStudyContext(context.Background(), "mountaincar", cfg, 2, 3, 11, StudyOptions{Sink: log})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords := 0
	for _, r := range st.Results {
		wantRecords += len(r.History)
	}
	recs := log.Records()
	if len(recs) != wantRecords {
		t.Fatalf("%d records for %d history entries", len(recs), wantRecords)
	}
	// Sorted records mirror the per-run histories field by field.
	i := 0
	for run := 0; run < 2; run++ {
		for g, st2 := range st.Results[run].History {
			rec := recs[i]
			i++
			if rec.Workload != "mountaincar" || rec.Run != run || rec.Generation != g {
				t.Fatalf("record %d mistagged: %+v", i-1, rec)
			}
			if rec.Report.Int("total_genes") != int64(st2.TotalGenes) {
				t.Fatalf("run %d gen %d: record genes %d, history %d",
					run, g, rec.Report.Int("total_genes"), st2.TotalGenes)
			}
			if rec.Report.Float("max_fitness") != st2.MaxFitness {
				t.Fatalf("run %d gen %d: record fitness %v, history %v",
					run, g, rec.Report.Float("max_fitness"), st2.MaxFitness)
			}
		}
	}
	if s := log.Series("footprint_bytes"); len(s) != wantRecords {
		t.Fatalf("footprint series %d long", len(s))
	}
}

func TestSpeciesInfoExposed(t *testing.T) {
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = 40
	r, err := NewRunner("lunarlander", cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Direct population access for the species snapshot.
	for _, g := range r.Pop.Genomes {
		g.Fitness = 1
	}
	repro, err := r.Pop.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(repro.Species) != repro.NumSpecies {
		t.Fatalf("%d species infos for %d species", len(repro.Species), repro.NumSpecies)
	}
	total := 0
	for _, s := range repro.Species {
		if s.Size <= 0 || s.Age < 0 {
			t.Fatalf("bad species info %+v", s)
		}
		total += s.Size
	}
	if total != 40 {
		t.Fatalf("species sizes sum to %d", total)
	}
	for i := 1; i < len(repro.Species); i++ {
		if repro.Species[i-1].BestFitness < repro.Species[i].BestFitness {
			t.Fatal("species not sorted by fitness")
		}
	}
}
