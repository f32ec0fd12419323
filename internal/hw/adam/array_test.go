package adam

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gene"
	"repro/internal/neat"
	"repro/internal/network"
	"repro/internal/rng"
)

func TestMatVecSmall(t *testing.T) {
	arr, err := NewArray(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	w := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	x := []float64{10, 100}
	y, cycles, err := arr.MatVec(w, x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{210, 430, 650}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
	if cycles != 64 {
		t.Fatalf("cycles %d, want one tile (64)", cycles)
	}
}

func TestMatVecTiled(t *testing.T) {
	arr, _ := NewArray(2, 2) // tiny array forces tiling
	w := [][]float64{
		{1, 0, 2, 0, 3},
		{0, 1, 0, 2, 0},
		{1, 1, 1, 1, 1},
	}
	x := []float64{1, 2, 3, 4, 5}
	y, cycles, err := arr.MatVec(w, x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1 + 6 + 15, 2 + 8, 15}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
	// 3 rows → 2 row-tiles; 5 cols → 3 col-tiles; 6 tiles × 4 cycles.
	if cycles != 24 {
		t.Fatalf("cycles %d, want 24", cycles)
	}
}

func TestMatVecShapeErrors(t *testing.T) {
	if _, err := NewArray(0, 4); err == nil {
		t.Fatal("zero-row array accepted")
	}
	arr, _ := NewArray(4, 4)
	if _, _, err := arr.MatVec([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("mismatched vector accepted")
	}
	y, cycles, err := arr.MatVec(nil, nil)
	if err != nil || y != nil || cycles != 0 {
		t.Fatal("empty matrix mishandled")
	}
}

// Property: the systolic wavefront equals a plain matrix–vector product
// for arbitrary shapes and array sizes.
func TestQuickMatVecEquivalence(t *testing.T) {
	f := func(seed uint64, rowsU, colsU, arU, acU uint8) bool {
		rows := int(rowsU%40) + 1
		cols := int(colsU%40) + 1
		ar := int(arU%8) + 1
		ac := int(acU%8) + 1
		g := rng.New(seed)
		w := make([][]float64, rows)
		ref := make([]float64, rows)
		x := make([]float64, cols)
		for c := range x {
			x[c] = g.Range(-2, 2)
		}
		for r := range w {
			w[r] = make([]float64, cols)
			for c := range w[r] {
				w[r][c] = g.Range(-2, 2)
				ref[r] += w[r][c] * x[c]
			}
		}
		arr, err := NewArray(ar, ac)
		if err != nil {
			return false
		}
		y, _, err := arr.MatVec(w, x)
		if err != nil {
			return false
		}
		for r := range ref {
			if math.Abs(y[r]-ref[r]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// hwFriendlyGenome evolves genomes restricted to sum aggregation so
// the whole network maps onto the array.
func hwFriendlyGenome(t *testing.T, seed uint64) *gene.Genome {
	t.Helper()
	cfg := neat.DefaultConfig(4, 2)
	cfg.PopulationSize = 12
	cfg.AggregationMutateRate = 0
	pop, err := neat.NewPopulation(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	for gen := 0; gen < 6; gen++ {
		for _, g := range pop.Genomes {
			g.Fitness = r.Float64()
		}
		if _, err := pop.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	return pop.Genomes[0]
}

// TestExecutorMatchesSoftwareNetwork is the hardware/software
// equivalence claim: inference through the simulated systolic array
// (Compile once, Feed per step) equals the software network evaluated
// at quantized precision.
func TestExecutorMatchesSoftwareNetwork(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := hwFriendlyGenome(t, seed)
		net, err := network.New(gene.FromWords(g.ID, g.Pack()))
		if err != nil {
			t.Fatal(err)
		}
		arr, _ := NewArray(32, 32)
		ex := NewExecutor(arr)
		compiled, err := ex.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		observations := [][]float64{{0.3, -0.7, 1.2, 0.05}}
		for trial := 0; trial < 5; trial++ {
			observations = append(observations, []float64{
				float64(trial) * 0.2, -0.5, float64(seed) * 0.1, 0.9,
			})
		}
		for _, obs := range observations {
			want, err := net.Feed(obs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := compiled.Feed(obs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d: width %d vs %d", seed, len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("seed %d obs %v: output %d: array %v, software %v",
						seed, obs, i, got[i], want[i])
				}
			}
		}
		if ex.ArrayCycles <= 0 {
			t.Fatal("no array cycles simulated")
		}
	}
}

func TestCompiledRejectsWrongWidth(t *testing.T) {
	g := hwFriendlyGenome(t, 2)
	arr, _ := NewArray(8, 8)
	c, err := NewExecutor(arr).Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInputs() != 4 || c.NumOutputs() != 2 {
		t.Fatalf("io %d/%d", c.NumInputs(), c.NumOutputs())
	}
	if _, err := c.Feed([]float64{1}); err == nil {
		t.Fatal("wrong width accepted")
	}
}

func TestExecutorNonSumFallback(t *testing.T) {
	g := gene.NewGenome(1)
	g.PutNode(gene.NewNode(0, gene.Input))
	g.PutNode(gene.NewNode(1, gene.Input))
	out := gene.NewNode(2, gene.Output)
	out.Activation = gene.ActIdentity
	out.Aggregation = gene.AggMax
	g.PutNode(out)
	g.PutConn(gene.NewConn(0, 2, 1))
	g.PutConn(gene.NewConn(1, 2, 1))

	arr, _ := NewArray(8, 8)
	ex := NewExecutor(arr)
	c, err := ex.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Feed([]float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("max aggregation output %v, want 5", got[0])
	}
	if ex.FallbackVertices != 1 {
		t.Fatalf("fallback count %d", ex.FallbackVertices)
	}
}

func BenchmarkArrayMatVec32(b *testing.B) {
	arr, _ := NewArray(32, 32)
	w := make([][]float64, 32)
	x := make([]float64, 32)
	for r := range w {
		w[r] = make([]float64, 32)
		for c := range w[r] {
			w[r][c] = float64(r*c) / 100
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := arr.MatVec(w, x); err != nil {
			b.Fatal(err)
		}
	}
}
