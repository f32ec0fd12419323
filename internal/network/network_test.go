package network

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gene"
	"repro/internal/neat"
	"repro/internal/rng"
)

// xorGenome hand-builds a 2-2-1 network computing XOR-ish structure.
func xorGenome() *gene.Genome {
	g := gene.NewGenome(1)
	g.PutNode(gene.NewNode(0, gene.Input))
	g.PutNode(gene.NewNode(1, gene.Input))
	out := gene.NewNode(2, gene.Output)
	out.Activation = gene.ActIdentity
	g.PutNode(out)
	h1 := gene.NewNode(3, gene.Hidden)
	h1.Activation = gene.ActReLU
	g.PutNode(h1)
	h2 := gene.NewNode(4, gene.Hidden)
	h2.Activation = gene.ActReLU
	g.PutNode(h2)
	g.PutConn(gene.NewConn(0, 3, 1))
	g.PutConn(gene.NewConn(1, 3, 1))
	g.PutConn(gene.NewConn(0, 4, 1))
	g.PutConn(gene.NewConn(1, 4, 1))
	// h1 detects sum>=1, h2 detects sum>=2 via biases.
	h1.Bias = 0
	h2.Bias = -1
	g.PutNode(h1)
	g.PutNode(h2)
	g.PutConn(gene.NewConn(3, 2, 1))
	g.PutConn(gene.NewConn(4, 2, -2))
	return g
}

func TestXORNetwork(t *testing.T) {
	n, err := New(xorGenome())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{0, 0}, 0},
		{[]float64{0, 1}, 1},
		{[]float64{1, 0}, 1},
		{[]float64{1, 1}, 0},
	}
	for _, c := range cases {
		got, err := n.Feed(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[0]-c.want) > 1e-9 {
			t.Fatalf("xor(%v) = %v, want %v", c.in, got[0], c.want)
		}
	}
}

func TestFeedDimensionCheck(t *testing.T) {
	n, _ := New(xorGenome())
	if _, err := n.Feed([]float64{1}); err == nil {
		t.Fatal("accepted wrong observation width")
	}
}

func TestCycleRejected(t *testing.T) {
	g := gene.NewGenome(1)
	g.PutNode(gene.NewNode(0, gene.Input))
	g.PutNode(gene.NewNode(1, gene.Output))
	g.PutNode(gene.NewNode(2, gene.Hidden))
	g.PutNode(gene.NewNode(3, gene.Hidden))
	g.PutConn(gene.NewConn(0, 2, 1))
	g.PutConn(gene.NewConn(2, 3, 1))
	g.PutConn(gene.NewConn(3, 2, 1)) // cycle 2->3->2
	g.PutConn(gene.NewConn(3, 1, 1))
	if _, err := New(g); err == nil {
		t.Fatal("cyclic genome accepted")
	}
}

func TestDisabledConnectionsIgnored(t *testing.T) {
	g := gene.NewGenome(1)
	g.PutNode(gene.NewNode(0, gene.Input))
	out := gene.NewNode(1, gene.Output)
	out.Activation = gene.ActIdentity
	g.PutNode(out)
	c := gene.NewConn(0, 1, 5)
	c.Enabled = false
	g.PutConn(c)
	n, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := n.Feed([]float64{1})
	if got[0] != 0 {
		t.Fatalf("disabled connection contributed: output %v", got[0])
	}
	if n.NumEdges() != 0 {
		t.Fatalf("NumEdges counts disabled conns: %d", n.NumEdges())
	}
}

func TestBiasResponseAndAggregation(t *testing.T) {
	g := gene.NewGenome(1)
	g.PutNode(gene.NewNode(0, gene.Input))
	g.PutNode(gene.NewNode(1, gene.Input))
	out := gene.NewNode(2, gene.Output)
	out.Activation = gene.ActIdentity
	out.Aggregation = gene.AggMax
	out.Bias = 0.5
	out.Response = 2
	g.PutNode(out)
	g.PutConn(gene.NewConn(0, 2, 1))
	g.PutConn(gene.NewConn(1, 2, 1))
	n, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := n.Feed([]float64{3, 7})
	// identity(0.5 + 2*max(3,7)) = 14.5
	if math.Abs(got[0]-14.5) > 1e-9 {
		t.Fatalf("output = %v, want 14.5", got[0])
	}
}

func TestOrphanOutputGetsBias(t *testing.T) {
	g := gene.NewGenome(1)
	g.PutNode(gene.NewNode(0, gene.Input))
	out := gene.NewNode(1, gene.Output)
	out.Activation = gene.ActIdentity
	out.Bias = 0.25
	g.PutNode(out)
	n, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := n.Feed([]float64{42})
	if got[0] != 0.25 {
		t.Fatalf("orphan output = %v, want bias 0.25", got[0])
	}
}

func TestActivationFunctions(t *testing.T) {
	cases := []struct {
		f    gene.Activation
		x    float64
		want float64
		tol  float64
	}{
		{gene.ActSigmoid, 0, 0.5, 1e-9},
		{gene.ActSigmoid, 100, 1, 1e-6},
		{gene.ActSigmoid, -100, 0, 1e-6},
		{gene.ActTanh, 0, 0, 1e-9},
		{gene.ActReLU, -3, 0, 0},
		{gene.ActReLU, 3, 3, 0},
		{gene.ActIdentity, -1.5, -1.5, 0},
		{gene.ActAbs, -2, 2, 0},
		{gene.ActClamped, 4, 1, 0},
		{gene.ActClamped, -4, -1, 0},
		{gene.ActGauss, 0, 1, 1e-9},
		{gene.ActSin, 0, 0, 1e-9},
	}
	for _, c := range cases {
		if got := Activate(c.f, c.x); math.Abs(got-c.want) > c.tol {
			t.Errorf("%v(%v) = %v, want %v", c.f, c.x, got, c.want)
		}
	}
}

func TestActivationFiniteEverywhere(t *testing.T) {
	for f := gene.Activation(0); int(f) < gene.NumActivations; f++ {
		for _, x := range []float64{-1e9, -100, -1, 0, 1, 100, 1e9} {
			v := Activate(f, x)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v(%v) = %v", f, x, v)
			}
		}
	}
}

func TestAggregationFunctions(t *testing.T) {
	xs := []float64{2, -1, 3}
	cases := []struct {
		f    gene.Aggregation
		want float64
	}{
		{gene.AggSum, 4},
		{gene.AggProduct, -6},
		{gene.AggMax, 3},
		{gene.AggMin, -1},
		{gene.AggMean, 4.0 / 3},
	}
	for _, c := range cases {
		if got := Aggregate(c.f, xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v(%v) = %v, want %v", c.f, xs, got, c.want)
		}
	}
	for f := gene.Aggregation(0); int(f) < gene.NumAggregations; f++ {
		if got := Aggregate(f, nil); got != 0 {
			t.Errorf("%v(empty) = %v, want 0", f, got)
		}
	}
}

func TestPlanCoversAllEdges(t *testing.T) {
	n, _ := New(xorGenome())
	p := n.BuildPlan()
	nz := 0
	for _, s := range p.Stages {
		nz += s.NonZero
	}
	if nz != n.NumEdges() {
		t.Fatalf("plan covers %d edges, network has %d", nz, n.NumEdges())
	}
	if p.TotalMACs() < nz {
		t.Fatal("dense MACs below edge count")
	}
	if d := p.MeanDensity(); d <= 0 || d > 1 {
		t.Fatalf("mean density %v", d)
	}
}

// Property: every genome NEAT evolves builds into a network whose Feed
// returns finite outputs of the right width. This is the core
// algorithm↔inference integration invariant.
func TestQuickEvolvedGenomesAlwaysEvaluable(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := neat.DefaultConfig(3, 2)
		cfg.PopulationSize = 20
		pop, err := neat.NewPopulation(cfg, seed)
		if err != nil {
			return false
		}
		r := rng.New(seed ^ 0xABCD)
		for gen := 0; gen < 4; gen++ {
			for _, g := range pop.Genomes {
				g.Fitness = r.Float64()
			}
			if _, err := pop.Epoch(); err != nil {
				return false
			}
		}
		obs := []float64{0.1, -0.5, 2}
		for _, g := range pop.Genomes {
			n, err := New(g)
			if err != nil {
				t.Logf("genome %d: %v", g.ID, err)
				return false
			}
			out, err := n.Feed(obs)
			if err != nil || len(out) != 2 {
				return false
			}
			for _, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkStatsOnEvolvedGenome(t *testing.T) {
	cfg := neat.DefaultConfig(4, 2)
	cfg.PopulationSize = 10
	pop, _ := neat.NewPopulation(cfg, 77)
	r := rng.New(7)
	for gen := 0; gen < 6; gen++ {
		for _, g := range pop.Genomes {
			g.Fitness = r.Float64()
		}
		if _, err := pop.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	g := pop.Genomes[0]
	n, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumInputs() != 4 || n.NumOutputs() != 2 {
		t.Fatalf("io mismatch: %d/%d", n.NumInputs(), n.NumOutputs())
	}
	if n.NumVertices() != len(g.Nodes) {
		t.Fatalf("vertex count %d vs %d node genes", n.NumVertices(), len(g.Nodes))
	}
	if n.Depth() < 1 {
		t.Fatal("network has no layers")
	}
}

func BenchmarkFeedSmall(b *testing.B) {
	n, _ := New(xorGenome())
	obs := []float64{1, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Feed(obs); err != nil {
			b.Fatal(err)
		}
	}
}
