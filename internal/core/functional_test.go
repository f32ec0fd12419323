package core

import (
	"reflect"
	"testing"
)

func TestFunctionalSystemConstruction(t *testing.T) {
	if _, err := NewFunctional("pong", 10, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
	s, err := NewFunctional("cartpole", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pop) != 20 {
		t.Fatalf("population %d", len(s.Pop))
	}
	// Default population size.
	d, err := NewFunctional("cartpole", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Pop) != 150 {
		t.Fatalf("default population %d", len(d.Pop))
	}
}

// TestFunctionalSystemSolvesCartPole is the capstone claim: the whole
// loop — quantized genomes, systolic-array inference, PE-pipeline
// reproduction — learns the task end to end.
func TestFunctionalSystemSolvesCartPole(t *testing.T) {
	s, err := NewFunctional("cartpole", 64, 23)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := s.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	first := s.History[0].MaxFitness
	last := s.History[len(s.History)-1].MaxFitness
	if !solved && last <= first {
		t.Fatalf("functional system made no progress: %v -> %v", first, last)
	}
	// The hardware actually worked for its result.
	var cycles int64
	genes := 0
	for _, st := range s.History {
		cycles += st.ArrayCycles
		genes += st.PEGenes
	}
	if cycles <= 0 {
		t.Fatal("no systolic-array cycles simulated")
	}
	if len(s.History) > 1 && genes <= 0 {
		t.Fatal("no genes streamed through the PEs")
	}
	t.Logf("functional cartpole: gen0=%v final=%v solved=%v (%d array cycles, %d PE genes)",
		first, last, solved, cycles, genes)
}

func TestFunctionalGenomesStayValid(t *testing.T) {
	s, err := NewFunctional("mountaincar", 24, 9)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 3; g++ {
		if _, err := s.RunGeneration(); err != nil {
			t.Fatal(err)
		}
		for _, genome := range s.Pop {
			if err := genome.Validate(); err != nil {
				t.Fatalf("generation %d: %v", g, err)
			}
		}
	}
}

func TestFunctionalMaxFitnessHandlesNegatives(t *testing.T) {
	// LunarLander's early generations score negative across the board;
	// MaxFitness must be the true maximum, not clamped at zero.
	s, err := NewFunctional("lunarlander", 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.RunGeneration()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxFitness == 0 && st.MeanFitness < -1 {
		t.Fatalf("max fitness clamped at zero while mean is %v", st.MeanFitness)
	}
	if st.MaxFitness < st.MeanFitness {
		t.Fatalf("max %v below mean %v", st.MaxFitness, st.MeanFitness)
	}
}

func TestFunctionalDeterminism(t *testing.T) {
	run := func() float64 {
		s, err := NewFunctional("cartpole", 16, 31)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.RunGeneration()
		if err != nil {
			t.Fatal(err)
		}
		return st.MeanFitness
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("functional loop non-deterministic: %v vs %v", a, b)
	}
}

// TestFunctionalSystemDeterministic pins the whole functional loop —
// seeding, array inference and PE reproduction — across generations:
// the same workload, population and seed give the same History.
func TestFunctionalSystemDeterministic(t *testing.T) {
	run := func() []FunctionalGenStats {
		s, err := NewFunctional("cartpole", 24, 5)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 3; g++ {
			if _, err := s.RunGeneration(); err != nil {
				t.Fatal(err)
			}
		}
		return s.History
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("%d generations recorded, want 3", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("functional history differs between runs:\n%+v\n%+v", a, b)
	}
}
