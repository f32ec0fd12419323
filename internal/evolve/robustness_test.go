package evolve

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/neat"
)

func smallConfig() neat.Config {
	cfg := neat.DefaultConfig(4, 2)
	cfg.PopulationSize = 30
	return cfg
}

// TestCheckpointResumeBitIdentical pins the headline robustness
// guarantee: a run cut at a generation boundary and resumed from its
// checkpoint produces exactly the history the uninterrupted run would
// have — same per-generation stats, same verdict.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	// MountainCar needs shaped progress over many generations, so a
	// 3-generation cut never lands after a solve.
	const seed, cut, budget = 13, 3, 8
	ctx := context.Background()

	// Uninterrupted reference run.
	a, err := NewRunner("mountaincar", smallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	solvedA, err := a.Run(ctx, budget)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint every generation and die one
	// generation past the cut, before that generation's checkpoint. Run
	// saves none at its own budget, so the file holds the cut.
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "mountaincar.ckpt")
	b1, err := NewRunner("mountaincar", smallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	b1.CheckpointPath = ckpt
	b1.CheckpointEvery = 1
	solvedEarly, err := b1.Run(ctx, cut+1)
	if err != nil {
		t.Fatal(err)
	}
	if solvedEarly {
		t.Fatalf("seed %d solves before generation %d; pick a harder seed", seed, cut+1)
	}

	// Fresh process: restore and finish the budget.
	b2, resumed, err := ResumeRunner("mountaincar", smallConfig(), seed, ckpt)
	if err != nil || !resumed {
		t.Fatalf("resume: resumed=%v err=%v", resumed, err)
	}
	if b2.Pop.Generation != cut {
		t.Fatalf("restored at generation %d, want %d", b2.Pop.Generation, cut)
	}
	solvedB, err := b2.Run(ctx, budget)
	if err != nil {
		t.Fatal(err)
	}

	if solvedB != solvedA {
		t.Fatalf("verdicts differ: resumed %v vs uninterrupted %v", solvedB, solvedA)
	}
	// The resumed history must be the uninterrupted history's tail,
	// stat for stat (GenStats is a comparable value struct).
	tail := a.History[cut:]
	if len(b2.History) != len(tail) {
		t.Fatalf("resumed %d generations, uninterrupted tail has %d",
			len(b2.History), len(tail))
	}
	for i := range tail {
		if b2.History[i] != tail[i] {
			t.Fatalf("generation %d diverged after resume:\n%+v\nvs\n%+v",
				tail[i].Generation, b2.History[i], tail[i])
		}
	}
}

// TestRunCancelledSavesCheckpoint: a cancelled Run returns ctx.Err()
// and leaves a restorable checkpoint behind.
func TestRunCancelledSavesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "cancel.ckpt")
	r, err := NewRunner("cartpole", smallConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	r.CheckpointPath = ckpt
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	solved, err := r.Run(ctx, 10)
	if solved || err != context.Canceled {
		t.Fatalf("cancelled run: solved=%v err=%v", solved, err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after cancellation: %v", err)
	}
	if _, resumed, err := ResumeRunner("cartpole", smallConfig(), 5, ckpt); err != nil || !resumed {
		t.Fatalf("cancellation checkpoint not restorable: resumed=%v err=%v", resumed, err)
	}
}

// TestRunSavesNoCheckpointAtBudget: a run that ends at its budget
// unsolved leaves no checkpoint, whether the last boundary is a
// periodic checkpoint or has a request pending. A crash between such a
// save and the caller's cleanup would resume a finished run.
func TestRunSavesNoCheckpointAtBudget(t *testing.T) {
	const seed, budget = 13, 2
	for _, tc := range []struct {
		name    string
		every   int
		request bool
	}{
		{"periodic", budget, false},
		{"requested", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRunner("mountaincar", smallConfig(), seed)
			if err != nil {
				t.Fatal(err)
			}
			r.CheckpointPath = filepath.Join(t.TempDir(), "budget.ckpt")
			r.CheckpointEvery = tc.every
			ctx := context.Background()
			if tc.request {
				// Step to the last boundary, then ask: the request is
				// pending when Run reaches the budget.
				if _, err := r.Run(ctx, budget-1); err != nil {
					t.Fatal(err)
				}
				r.RequestCheckpoint()
			}
			solved, err := r.Run(ctx, budget)
			if err != nil {
				t.Fatal(err)
			}
			if solved {
				t.Fatalf("seed %d solves within %d generations; pick a harder seed", seed, budget)
			}
			if r.Pop.Generation != budget {
				t.Fatalf("run stopped at generation %d, budget %d", r.Pop.Generation, budget)
			}
			if _, err := os.Stat(r.CheckpointPath); !os.IsNotExist(err) {
				t.Fatalf("checkpoint at the budget boundary (stat: %v)", err)
			}
		})
	}
}

// TestCheckpointFloats saves a checkpoint with a genome attribute at
// each float boundary of the JSON encoding: a finite value restores
// bit for bit, and NaN or ±Inf fails the save without leaving a
// checkpoint or a staging file.
func TestCheckpointFloats(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-7, 9.99e20, 1e21, 5e-324, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		r, err := NewRunner("cartpole", smallConfig(), 5)
		if err != nil {
			t.Fatal(err)
		}
		r.Pop.Genomes[3].Fitness = f
		r.Pop.Genomes[4].Conns[0].Weight = f
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "floats.ckpt")
		err = r.SaveCheckpoint(ckpt)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			if err == nil {
				t.Errorf("%v: saved", f)
			}
			// Neither the checkpoint nor the save's staging file.
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("%v: %s left behind", f, ents[0].Name())
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		back, resumed, err := ResumeRunner("cartpole", smallConfig(), 5, ckpt)
		if err != nil || !resumed {
			t.Fatalf("%v: resumed=%v err=%v", f, resumed, err)
		}
		if got := back.Pop.Genomes[3].Fitness; math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("fitness %v restored as %v", f, got)
		}
		if got := back.Pop.Genomes[4].Conns[0].Weight; math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("weight %v restored as %v", f, got)
		}
	}
}

// jsonCheckpoint is a checkpoint in the JSON format earlier builds
// wrote: a fresh cartpole population of one genome.
const jsonCheckpoint = `{"config":{"PopulationSize":1,"NumInputs":4,"NumOutputs":1,"InitialConnection":"full","CompatThreshold":3,` +
	`"CompatDisjointCoeff":1,"CompatWeightCoeff":0.5,"MaxStagnation":15,"SpeciesElitism":2,"Elitism":2,` +
	`"SurvivalThreshold":0.2,"CrossoverRate":0.75,"MinSpeciesSize":2,"TournamentSize":3,"WeightMutateRate":0.8,` +
	`"WeightReplaceRate":0.1,"WeightPerturbPower":0.5,"WeightInitPower":1,"BiasMutateRate":0.7,"BiasPerturbPower":0.5,` +
	`"ResponseMutateRate":0.1,"ResponsePerturbPower":0.1,"ActivationMutateRate":0.05,"AggregationMutateRate":0.03,` +
	`"EnableMutateRate":0.05,"AddNodeProb":0.1,"AddConnProb":0.3,"DeleteNodeProb":0.05,"DeleteConnProb":0.15,` +
	`"MaxDeletedNodes":1,"CrossoverBias":0.5,"LocalNodeIDs":false,"FeedForwardOnly":true},"generation":0,` +
	`"nextGenomeId":1,"nextSpeciesId":0,"nextNodeId":5,"genomes":[{"id":0,"fitness":0,"nodes":[{"id":0,` +
	`"type":"input","bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"},{"id":1,"type":"input",` +
	`"bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"},{"id":2,"type":"input","bias":0,` +
	`"response":1,"activation":"sigmoid","aggregation":"sum"},{"id":3,"type":"input","bias":0,"response":1,` +
	`"activation":"sigmoid","aggregation":"sum"},{"id":4,"type":"output","bias":0,"response":1,"activation":"sigmoid",` +
	`"aggregation":"sum"}],"conns":[{"src":0,"dst":4,"weight":0,"enabled":true},{"src":1,"dst":4,"weight":0,` +
	`"enabled":true},{"src":2,"dst":4,"weight":0,"enabled":true},{"src":3,"dst":4,"weight":0,"enabled":true}]}],` +
	`"rng":{"x":3195035748,"y":2276452962,"z":1152747958,"w":2536595552,"v":794331041,"d":2156817406}}` + "\n"

// TestResumeRemovesJSONCheckpoint: a checkpoint left by an earlier
// build does not restore, so ResumeRunner removes it and the run
// starts fresh, recomputing once.
func TestResumeRemovesJSONCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "cartpole-p1-g3-s5.ckpt")
	if err := os.WriteFile(ckpt, []byte(jsonCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.PopulationSize = 1
	r, resumed, err := ResumeRunner("cartpole", cfg, 5, ckpt)
	if err != nil || resumed {
		t.Fatalf("resumed=%v err=%v", resumed, err)
	}
	if r.Pop.Generation != 0 {
		t.Fatalf("fresh run starts at generation %d", r.Pop.Generation)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("JSON checkpoint left behind (stat: %v)", err)
	}
}

// TestEvaluationPanicBecomesError: a panicking fitness evaluation (a
// Fitness function bug) must surface as an evaluation error, not kill
// the worker pool (and with it the process).
func TestEvaluationPanicBecomesError(t *testing.T) {
	r, err := NewRunner("cartpole", smallConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r.Workload.Fitness = func(env.Env, int, float64) float64 { panic("fitness bug") }
	_, _, _, err = r.EvaluateGeneration(context.Background())
	if err == nil {
		t.Fatal("panicking fitness produced no error")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panic not identified in error: %v", err)
	}
}

// TestStudyCancelledContext: a study launched with a dead context
// fails every run with the context error instead of hanging or
// panicking, and the per-run errors are preserved.
func TestStudyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := RunStudyContext(ctx, "cartpole", smallConfig(), 3, 5, 1, StudyOptions{})
	if err == nil {
		t.Fatal("cancelled study reported success")
	}
	if len(st.Results) != 3 {
		t.Fatalf("%d results", len(st.Results))
	}
	for _, res := range st.Results {
		if res.Err != context.Canceled {
			t.Fatalf("run %d: err %v, want context.Canceled", res.Run, res.Err)
		}
	}
}

// TestStudyCheckpointResume drives the acceptance scenario end to end:
// a study killed mid-run (simulated by a short budget) resumes from
// its checkpoint directory to the same per-run verdicts as an
// uninterrupted study.
func TestStudyCheckpointResume(t *testing.T) {
	const runs, seed, cut, budget = 2, 21, 3, 8
	ctx := context.Background()

	ref, err := RunStudyContext(ctx, "cartpole", smallConfig(), runs, budget, seed, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opt := StudyOptions{CheckpointDir: dir, CheckpointEvery: 1}
	if _, err := RunStudyContext(ctx, "cartpole", smallConfig(), runs, cut, seed, opt); err != nil {
		t.Fatal(err)
	}
	resumed, err := RunStudyContext(ctx, "cartpole", smallConfig(), runs, budget, seed, opt)
	if err != nil {
		t.Fatal(err)
	}

	for run := 0; run < runs; run++ {
		a, b := ref.Results[run], resumed.Results[run]
		if a.Solved != b.Solved {
			t.Fatalf("run %d: verdict %v resumed vs %v uninterrupted", run, b.Solved, a.Solved)
		}
		if len(a.History) == 0 || len(b.History) == 0 {
			t.Fatalf("run %d: empty history", run)
		}
		la, lb := a.History[len(a.History)-1], b.History[len(b.History)-1]
		if la != lb {
			t.Fatalf("run %d: final generation diverged:\n%+v\nvs\n%+v", run, lb, la)
		}
	}
}
