package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/neat"
	"repro/internal/rng"
)

// evolveTrace runs a few NEAT generations with a Trace attached.
func evolveTrace(t *testing.T, generations int) *Trace {
	t.Helper()
	cfg := neat.DefaultConfig(3, 2)
	cfg.PopulationSize = 30
	pop, err := neat.NewPopulation(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{}
	pop.SetRecorder(tr)
	r := rng.New(9)
	for g := 0; g < generations; g++ {
		for _, gn := range pop.Genomes {
			gn.Fitness = r.Float64()
		}
		if _, err := pop.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestTraceCapturesGenerations(t *testing.T) {
	tr := evolveTrace(t, 3)
	if len(tr.Generations) != 3 {
		t.Fatalf("trace has %d generations", len(tr.Generations))
	}
	for i, g := range tr.Generations {
		if g.Index != i {
			t.Fatalf("generation %d has index %d", i, g.Index)
		}
		if len(g.ParentSizes) != 30 {
			t.Fatalf("generation %d snapshot has %d parents", i, len(g.ParentSizes))
		}
		if g.PopulationGenes <= 0 {
			t.Fatalf("generation %d: no population genes", i)
		}
		if len(g.Children) == 0 {
			t.Fatalf("generation %d: no children", i)
		}
		if g.Crossovers() == 0 {
			t.Fatalf("generation %d: no crossover ops", i)
		}
		if g.Mutations() == 0 {
			t.Fatalf("generation %d: no mutation ops", i)
		}
	}
}

func TestChildRecordsConsistent(t *testing.T) {
	tr := evolveTrace(t, 2)
	g := tr.Last()
	for i := range g.Children {
		c := &g.Children[i]
		if c.TotalOps() <= 0 {
			t.Fatalf("child %d has no ops", c.Child)
		}
		if c.Parent1 < 0 {
			t.Fatalf("child %d has no primary parent", c.Child)
		}
		if c.Parent2 >= 0 && c.Ops[neat.OpCrossover] == 0 {
			t.Fatalf("two-parent child %d has no crossover ops", c.Child)
		}
		if c.GenesStreamed() < 0 {
			t.Fatalf("child %d streamed %d genes", c.Child, c.GenesStreamed())
		}
	}
}

func TestParentUseMatchesReuse(t *testing.T) {
	tr := evolveTrace(t, 1)
	use := tr.Last().ParentUse()
	if len(use) == 0 {
		t.Fatal("no parent usage")
	}
	total := 0
	for id, n := range use {
		if n <= 0 {
			t.Fatalf("parent %d used %d times", id, n)
		}
		total += n
	}
	// Every non-elite child uses at least one parent.
	if total < len(tr.Last().Children) {
		t.Fatalf("parent use total %d below child count %d", total, len(tr.Last().Children))
	}
}

func TestRoundTripSerialization(t *testing.T) {
	tr := evolveTrace(t, 2)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Generations) != len(tr.Generations) {
		t.Fatalf("round trip lost generations: %d vs %d",
			len(back.Generations), len(tr.Generations))
	}
	for i := range tr.Generations {
		a, b := &tr.Generations[i], &back.Generations[i]
		if a.Index != b.Index || a.PopulationGenes != b.PopulationGenes {
			t.Fatalf("generation header mismatch at %d", i)
		}
		if len(a.Children) != len(b.Children) {
			t.Fatalf("children mismatch at %d: %d vs %d", i, len(a.Children), len(b.Children))
		}
		for j := range a.Children {
			if a.Children[j] != b.Children[j] {
				t.Fatalf("child %d/%d mismatch: %+v vs %+v", i, j, a.Children[j], b.Children[j])
			}
		}
		if len(a.ParentSizes) != len(b.ParentSizes) {
			t.Fatalf("parent sizes mismatch at %d", i)
		}
		for id, sz := range a.ParentSizes {
			if b.ParentSizes[id] != sz {
				t.Fatalf("parent %d size %d vs %d", id, sz, b.ParentSizes[id])
			}
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"X 1 2\n",
		"P 1 2\n",          // P before G
		"C 1 2 3 4\n",      // C before G
		"G 0 100\nC 1 2\n", // short C record
		"G 1 2junk\n",      // trailing bytes in a field
		"G 1 2 3\n",        // long G record
		"G 0 1\nP 1 2 3\n", // long P record
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

func TestParseSkipsBlankLines(t *testing.T) {
	tr, err := Parse(strings.NewReader("\nG 0 10\n\nP 1 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Generations) != 1 || tr.Generations[0].ParentSizes[1] != 10 {
		t.Fatalf("parsed %+v", tr.Generations)
	}
}

func TestLastOnEmpty(t *testing.T) {
	var tr Trace
	if tr.Last() != nil {
		t.Fatal("Last on empty trace should be nil")
	}
}

func TestRecordWithoutSnapshot(t *testing.T) {
	var tr Trace
	tr.Record(neat.Event{Generation: 5, Child: 1, Parent1: 2, Parent2: 3,
		Ops: [neat.NumOps]int64{neat.OpCrossover: 1}})
	if len(tr.Generations) != 1 || tr.Generations[0].Index != 5 {
		t.Fatalf("bare Record mishandled: %+v", tr.Generations)
	}
}
