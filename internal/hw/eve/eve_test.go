package eve

import (
	"reflect"
	"testing"

	"repro/internal/hw/hwsim"
	"repro/internal/hw/noc"
	"repro/internal/hw/sram"
	"repro/internal/neat"
	"repro/internal/rng"
	"repro/internal/trace"
)

// replay runs one generation on a fresh engine at cfg and returns its
// ledger.
func replay(cfg Config, g *trace.Generation) hwsim.Report {
	e := New(cfg, nil)
	e.RunGeneration(g)
	return e.Counters().Snapshot()
}

// syntheticGeneration builds a trace generation with `children` children
// drawn from `parents` parents of `genes` genes each, with heavy reuse
// of parent 0 (the "fit parent" pattern of Fig. 4c).
func syntheticGeneration(children, parents, genes int) *trace.Generation {
	g := &trace.Generation{
		Index:       0,
		ParentSizes: map[int64]int{},
	}
	for p := 0; p < parents; p++ {
		g.ParentSizes[int64(p)] = genes
		g.PopulationGenes += genes
	}
	r := rng.New(1)
	for c := 0; c < children; c++ {
		child := trace.ChildRecord{
			Child:   int64(1000 + c),
			Parent1: 0, // hot parent
			Parent2: int64(1 + r.Intn(parents-1)),
		}
		child.Ops[neat.OpCrossover] = int64(genes)
		child.Ops[neat.OpPerturb] = int64(genes / 2)
		child.Ops[neat.OpAddConn] = 1
		g.Children = append(g.Children, child)
	}
	return g
}

// realTrace evolves a real population and returns its trace.
func realTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := neat.DefaultConfig(4, 2)
	cfg.PopulationSize = 50
	pop, err := neat.NewPopulation(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{}
	pop.SetRecorder(tr)
	r := rng.New(5)
	for gen := 0; gen < 3; gen++ {
		for _, g := range pop.Genomes {
			g.Fitness = r.Float64()
		}
		if _, err := pop.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestReportBasics(t *testing.T) {
	g := syntheticGeneration(150, 10, 100)
	r := replay(DefaultConfig(256, noc.MulticastTree), g)
	if r.Int("children") != 150 {
		t.Fatalf("children %d", r.Int("children"))
	}
	if r.Int("waves") != 1 {
		t.Fatalf("150 children on 256 PEs took %d waves", r.Int("waves"))
	}
	if r.Int("total_cycles") <= 0 || r.Int("stream_cycles") <= 0 || r.Int("selector_cycles") <= 0 {
		t.Fatalf("degenerate cycles: %+v", r)
	}
	if r.Int("sram_writes") <= 0 || r.Int("sram_reads") <= 0 {
		t.Fatalf("no SRAM traffic: %+v", r)
	}
	if r.Int("pe/gene_ops") != 150*(100+50+1) {
		t.Fatalf("gene ops %d", r.Int("pe/gene_ops"))
	}
	if r.Float("energy_pj") <= 0 {
		t.Fatal("no energy")
	}
	if u := r.Float("utilization"); u <= 0 || u > 1 {
		t.Fatalf("utilization %v", u)
	}
}

func TestMulticastReducesReads(t *testing.T) {
	g := syntheticGeneration(150, 5, 500)
	p2p := replay(DefaultConfig(256, noc.PointToPoint), g)
	mc := replay(DefaultConfig(256, noc.MulticastTree), g)
	if mc.Int("sram_reads") >= p2p.Int("sram_reads") {
		t.Fatalf("multicast reads %d not below p2p %d", mc.Int("sram_reads"), p2p.Int("sram_reads"))
	}
	// Heavy parent reuse (parent 0 in every child): expect a large
	// reduction, the Fig. 11b effect.
	if p2p.Int("sram_reads")/mc.Int("sram_reads") < 20 {
		t.Fatalf("reduction only %d×", p2p.Int("sram_reads")/mc.Int("sram_reads"))
	}
	// Writes are identical: every child genome is written once.
	if mc.Int("sram_writes") != p2p.Int("sram_writes") {
		t.Fatalf("writes differ: %d vs %d", mc.Int("sram_writes"), p2p.Int("sram_writes"))
	}
}

func TestMorePEsFewerWavesFasterGeneration(t *testing.T) {
	g := syntheticGeneration(150, 10, 200)
	prevCycles := int64(1 << 62)
	prevWaves := int64(1 << 30)
	for _, pes := range []int{2, 8, 32, 128} {
		r := replay(DefaultConfig(pes, noc.MulticastTree), g)
		if r.Int("waves") > prevWaves {
			t.Fatalf("%d PEs: waves grew to %d", pes, r.Int("waves"))
		}
		if r.Int("stream_cycles") > prevCycles {
			t.Fatalf("%d PEs: cycles grew to %d", pes, r.Int("stream_cycles"))
		}
		prevCycles, prevWaves = r.Int("stream_cycles"), r.Int("waves")
	}
}

func TestMorePEsWithMulticastFewerReads(t *testing.T) {
	// The Fig. 11c effect: at low PE counts, children sharing a parent
	// run in different waves, so the parent is re-read; more PEs let a
	// single multicast read serve them.
	g := syntheticGeneration(150, 5, 300)
	few := replay(DefaultConfig(2, noc.MulticastTree), g).Int("sram_reads")
	many := replay(DefaultConfig(256, noc.MulticastTree), g).Int("sram_reads")
	if many >= few {
		t.Fatalf("reads did not fall with PEs: %d (2 PEs) vs %d (256 PEs)", few, many)
	}
	if few/many < 10 {
		t.Fatalf("read reduction only %d×", few/many)
	}
}

func TestGreedyAllocationCoSchedulesSiblings(t *testing.T) {
	// 4 children of one parent pair + 4 of another, 4 PEs: greedy
	// packing puts each family in its own wave, so multicast reads are
	// one stream per parent per wave.
	g := &trace.Generation{ParentSizes: map[int64]int{0: 100, 1: 100, 2: 100, 3: 100}}
	for c := 0; c < 8; c++ {
		child := trace.ChildRecord{Child: int64(c)}
		if c < 4 {
			child.Parent1, child.Parent2 = 0, 1
		} else {
			child.Parent1, child.Parent2 = 2, 3
		}
		child.Ops[neat.OpCrossover] = 100
		g.Children = append(g.Children, child)
	}
	r := replay(DefaultConfig(4, noc.MulticastTree), g)
	if r.Int("waves") != 2 {
		t.Fatalf("waves %d, want 2", r.Int("waves"))
	}
	// 2 streams of 100 genes per wave × 2 waves = 400 reads.
	if r.Int("sram_reads") != 400 {
		t.Fatalf("reads %d, want 400", r.Int("sram_reads"))
	}
}

func TestMutationOnlyChildren(t *testing.T) {
	g := &trace.Generation{ParentSizes: map[int64]int{7: 50}}
	child := trace.ChildRecord{Child: 1, Parent1: 7, Parent2: -1}
	child.Ops[neat.OpPerturb] = 20
	g.Children = append(g.Children, child)
	r := replay(DefaultConfig(8, noc.MulticastTree), g)
	if r.Int("sram_reads") != 50 {
		t.Fatalf("clone child read %d genes, want parent's 50", r.Int("sram_reads"))
	}
	if r.Int("sram_writes") != 50 {
		t.Fatalf("clone child wrote %d genes, want 50", r.Int("sram_writes"))
	}
}

func TestRealTraceReplay(t *testing.T) {
	tr := realTrace(t)
	buf := sram.New(sram.DefaultConfig())
	e := New(DefaultConfig(256, noc.MulticastTree), buf)
	for i := range tr.Generations {
		e.Reset()
		e.RunGeneration(&tr.Generations[i])
		r := e.Counters().Snapshot()
		if r.Int("total_cycles") <= 0 || r.Int("pe/gene_ops") <= 0 {
			t.Fatalf("generation %d: empty report %+v", i, r)
		}
		if r.Int("sram_writes") <= 0 {
			t.Fatalf("generation %d: no child writes", i)
		}
	}
	if buf.Counters().Snapshot().Int("reads") <= 0 {
		t.Fatal("shared buffer saw no traffic")
	}
}

func TestFIFOAllocationIgnoresFamilies(t *testing.T) {
	// Interleaved families on 2 PEs: greedy groups siblings (2 waves of
	// one family each → 1 stream per parent per wave); FIFO interleaves
	// them (each wave touches both families → more streams per wave).
	g := &trace.Generation{ParentSizes: map[int64]int{0: 100, 1: 100}}
	for c := 0; c < 4; c++ {
		child := trace.ChildRecord{Child: int64(c), Parent1: int64(c % 2), Parent2: -1}
		child.Ops[neat.OpCrossover] = 100
		g.Children = append(g.Children, child)
	}
	gCfg := DefaultConfig(2, noc.MulticastTree)
	fCfg := gCfg
	fCfg.Allocation = AllocFIFO
	greedy := replay(gCfg, g).Int("sram_reads")
	fifo := replay(fCfg, g).Int("sram_reads")
	// Greedy: 2 waves × 1 distinct parent = 200 reads.
	if greedy != 200 {
		t.Fatalf("greedy reads %d, want 200", greedy)
	}
	// FIFO: children arrive 0,1,2,3 → each wave holds both parents.
	if fifo != 400 {
		t.Fatalf("fifo reads %d, want 400", fifo)
	}
	if AllocGreedy.String() != "greedy" || AllocFIFO.String() != "fifo" {
		t.Fatal("allocation names wrong")
	}
}

func BenchmarkReplayAtariGeneration(b *testing.B) {
	g := syntheticGeneration(150, 30, 2400)
	e := New(DefaultConfig(256, noc.MulticastTree), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunGeneration(g)
	}
}

func TestDeterministicReplay(t *testing.T) {
	g := syntheticGeneration(64, 7, 80)
	a := replay(DefaultConfig(16, noc.MulticastTree), g)
	b := replay(DefaultConfig(16, noc.MulticastTree), g)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", a, b)
	}
}
