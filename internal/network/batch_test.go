package network

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gene"
)

// feedBoth runs the scalar path for each lane's program and the batch
// path once, and asserts every lane's outputs are bit-identical.
func feedBoth(t *testing.T, progs []Program, bp *BatchProgram, st *BatchState, active int, rnd *rand.Rand) {
	t.Helper()
	w := bp.Width()
	ni, no := bp.NumInputs(), bp.NumOutputs()
	obs := bp.ObsPlane(st)
	for lane := 0; lane < active; lane++ {
		for i := 0; i < ni; i++ {
			obs[i*w+lane] = rnd.Float64()*4 - 2
		}
	}
	if err := bp.FeedBatchInto(st, active); err != nil {
		t.Fatal(err)
	}
	dst := bp.ActPlane(st)
	scalarObs := make([]float64, ni)
	scalarOut := make([]float64, no)
	for lane := 0; lane < active; lane++ {
		net := progs[lane].Instantiate()
		for i := 0; i < ni; i++ {
			scalarObs[i] = obs[i*w+lane]
		}
		if err := net.FeedInto(scalarOut, scalarObs); err != nil {
			t.Fatal(err)
		}
		for o := 0; o < no; o++ {
			got, want := dst[o*w+lane], scalarOut[o]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("lane %d output %d: batch %v (bits %016x) != scalar %v (bits %016x)",
					lane, o, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// mutateWeights returns a same-topology clone with re-rolled weights,
// biases, and responses — the parameter-only variation that dominates
// evolved populations and fills batch lanes.
func mutateWeights(g *gene.Genome, rnd *rand.Rand) *gene.Genome {
	c := g.Clone()
	for i := range c.Conns {
		c.Conns[i].Weight = rnd.NormFloat64() * 2
	}
	for i := range c.Nodes {
		if c.Nodes[i].Type != gene.Input {
			c.Nodes[i].Bias = rnd.NormFloat64()
			c.Nodes[i].Response = 0.5 + rnd.Float64()
		}
	}
	c.BumpVersion()
	return c
}

// testNode builds a node gene with explicit attributes.
func testNode(id int32, typ gene.NodeType, act gene.Activation, agg gene.Aggregation, bias, resp float64) gene.Node {
	n := gene.NewNode(id, typ)
	n.Activation = act
	n.Aggregation = agg
	n.Bias = bias
	n.Response = resp
	return n
}

// TestFeedBatchBitIdentical drives randomized evolved genomes through
// the batch kernel and pins every lane to the scalar FeedInto result,
// bit for bit, across random observations, varying active widths,
// lane swaps, and lane reloads.
func TestFeedBatchBitIdentical(t *testing.T) {
	for _, seed := range []int64{3, 17, 91} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			base := evolvedGenome(t, 6, 3, 48, 10, uint64(seed))
			var b Builder
			exemplar, err := b.Compile(base)
			if err != nil {
				t.Fatal(err)
			}
			const width = 9 // odd width: exercises the vector kernel's scalar tail
			progs := make([]Program, width)
			progs[0] = exemplar
			for lane := 1; lane < width; lane++ {
				pr, err := b.Compile(mutateWeights(base, rnd))
				if err != nil {
					t.Fatal(err)
				}
				if !pr.SameTopology(exemplar) {
					t.Fatal("weight mutation changed topology")
				}
				progs[lane] = pr
			}

			bp := NewBatch(exemplar, width)
			for lane, pr := range progs {
				if err := bp.SetLane(lane, pr); err != nil {
					t.Fatal(err)
				}
			}
			st := bp.NewState()
			for step := 0; step < 20; step++ {
				feedBoth(t, progs, bp, st, width, rnd)
			}

			// Shrinking active prefix: retire the last lane each round.
			for active := width; active >= 1; active-- {
				feedBoth(t, progs, bp, st, active, rnd)
			}

			// Swap-retire then backfill: move lane 0 out of the prefix,
			// reload lane 0 with a fresh program, and recheck.
			last := width - 1
			bp.SwapLanes(0, last)
			progs[0], progs[last] = progs[last], progs[0]
			feedBoth(t, progs, bp, st, width-1, rnd)
			fresh, err := b.Compile(mutateWeights(base, rnd))
			if err != nil {
				t.Fatal(err)
			}
			if err := bp.SetLane(0, fresh); err != nil {
				t.Fatal(err)
			}
			progs[0] = fresh
			feedBoth(t, progs, bp, st, width, rnd)
		})
	}
}

// TestFeedBatchAllActivations covers every activation and aggregation
// id through hand-built single-hidden-node genomes, batch vs scalar.
func TestFeedBatchAllActivations(t *testing.T) {
	acts := []gene.Activation{
		gene.ActSigmoid, gene.ActTanh, gene.ActReLU, gene.ActIdentity,
		gene.ActSin, gene.ActGauss, gene.ActAbs, gene.ActClamped,
	}
	aggs := []gene.Aggregation{
		gene.AggSum, gene.AggProduct, gene.AggMax, gene.AggMin, gene.AggMean,
	}
	rnd := rand.New(rand.NewSource(5))
	for _, act := range acts {
		for _, agg := range aggs {
			g := &gene.Genome{
				ID: 1,
				Nodes: []gene.Node{
					testNode(0, gene.Input, gene.ActIdentity, gene.AggSum, 0, 1),
					testNode(1, gene.Input, gene.ActIdentity, gene.AggSum, 0, 1),
					testNode(2, gene.Input, gene.ActIdentity, gene.AggSum, 0, 1),
					testNode(3, gene.Output, act, agg, 0.25, 1),
					testNode(4, gene.Hidden, act, agg, -0.5, 0.8),
				},
				Conns: []gene.Conn{
					gene.NewConn(0, 4, 1.5),
					gene.NewConn(1, 3, -0.4),
					gene.NewConn(1, 4, -2),
					gene.NewConn(2, 4, 0.3),
					gene.NewConn(4, 3, 1.1),
				},
			}
			g.BumpVersion()
			var b Builder
			pr, err := b.Compile(g)
			if err != nil {
				t.Fatalf("act %d agg %d: %v", act, agg, err)
			}
			const width = 5
			progs := make([]Program, width)
			for lane := range progs {
				progs[lane] = pr
				if lane > 0 {
					if progs[lane], err = b.Compile(mutateWeights(g, rnd)); err != nil {
						t.Fatal(err)
					}
				}
			}
			bp := NewBatch(pr, width)
			for lane, lp := range progs {
				if err := bp.SetLane(lane, lp); err != nil {
					t.Fatal(err)
				}
			}
			st := bp.NewState()
			feedBoth(t, progs, bp, st, width, rnd)
		}
	}
}

// TestTopoKeyGrouping pins the grouping contract: weight-only mutants
// share a key, structural mutants do not.
func TestTopoKeyGrouping(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	base := evolvedGenome(t, 4, 2, 32, 8, 23)
	var b Builder
	pr, err := b.Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	mut, err := b.Compile(mutateWeights(base, rnd))
	if err != nil {
		t.Fatal(err)
	}
	if pr.TopoKey() != mut.TopoKey() || !pr.SameTopology(mut) {
		t.Fatal("weight mutation must preserve topology key")
	}

	structural := base.Clone()
	for i := range structural.Conns {
		if structural.Conns[i].Enabled {
			structural.Conns[i].Enabled = false
			break
		}
	}
	structural.BumpVersion()
	spr, err := b.Compile(structural)
	if err != nil {
		t.Fatal(err)
	}
	if pr.SameTopology(spr) {
		t.Fatal("disabling an edge must change topology")
	}
}

// TestBatchErrors covers the guard paths.
func TestBatchErrors(t *testing.T) {
	g := evolvedGenome(t, 3, 2, 16, 4, 7)
	var b Builder
	pr, err := b.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	bp := NewBatch(pr, 4)
	st := bp.NewState()
	if err := bp.FeedBatchInto(st, 5); err == nil {
		t.Fatal("active > width must fail")
	}
	if err := bp.FeedBatchInto(NewBatch(pr, 8).NewState(), 4); err == nil {
		t.Fatal("a state of another width must fail")
	}
	if err := bp.SetLane(9, pr); err == nil {
		t.Fatal("lane out of range must fail")
	}
	other, err := b.Compile(evolvedGenome(t, 4, 2, 16, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.SetLane(0, other); err == nil {
		t.Fatal("topology mismatch must fail")
	}
}

// TestFeedBatchZeroAlloc pins the zero-allocation steady state.
func TestFeedBatchZeroAlloc(t *testing.T) {
	g := evolvedGenome(t, 8, 4, 64, 12, 42)
	var b Builder
	pr, err := b.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	bp := NewBatch(pr, 16)
	st := bp.NewState()
	obs := bp.ObsPlane(st)
	for i := range obs {
		obs[i] = float64(i%7) * 0.1
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := bp.FeedBatchInto(st, 16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FeedBatchInto allocates %v per run, want 0", allocs)
	}
}
