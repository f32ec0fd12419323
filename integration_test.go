package repro

// Cross-module integration tests: the full closed loop of the paper,
// exercised end to end across the algorithm, environment, trace and
// hardware layers.

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/gene"
	"repro/internal/hw/eve"
	"repro/internal/hw/noc"
	"repro/internal/neat"
	"repro/internal/trace"
)

// TestClosedLoopSolvesCartPoleWithHW runs the complete GeneSys loop —
// evaluation, trace capture, chip accounting, reproduction — until the
// task is solved, then checks the hardware ledger is self-consistent.
func TestClosedLoopSolvesCartPoleWithHW(t *testing.T) {
	sys, err := core.New(core.Config{
		Workload: "cartpole", Seed: 19, Population: 100, HardwareInLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sys.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Solved {
		t.Fatalf("cartpole unsolved in 30 generations (best %v)", sum.BestFitness)
	}
	var cycles int64
	var energy float64
	for _, res := range sys.History {
		if !res.HasHW {
			t.Fatal("hardware report missing")
		}
		hw := res.HW
		cycles += hw.Int("total_cycles")
		energy += hw.Float("energy_pj")
		// The chip's cycle ledger must decompose exactly.
		want := hw.Int("adam/total_cycles") +
			hw.Int("scratchpad_to_adam_cycles") + hw.Int("adam_to_scratchpad_cycles") +
			hw.Int("eve/total_cycles")
		if hw.Int("total_cycles") != want {
			t.Fatalf("cycle ledger broken: %d != %d", hw.Int("total_cycles"), want)
		}
	}
	if sum.TotalCycles != cycles || sum.TotalEnergyPJ != energy {
		t.Fatal("summary does not equal the per-generation ledger")
	}
	// Sanity: solving cartpole must cost far less than a joule.
	if energy*1e-12 > 0.001 {
		t.Fatalf("implausible chip energy: %v J", energy*1e-12)
	}
}

// TestTraceDrivenReplayMatchesLiveCounters verifies the paper's
// methodology end to end: serializing a trace and replaying it through
// EvE gives the same account as replaying the live trace.
func TestTraceDrivenReplayMatchesLiveCounters(t *testing.T) {
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = 40
	r, err := evolve.NewRunner("lunarlander", cfg, 23)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{}
	r.SetRecorder(tr)
	if _, err := r.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}

	live := eve.New(eve.DefaultConfig(256, noc.MulticastTree), nil)
	replayed := eve.New(eve.DefaultConfig(256, noc.MulticastTree), nil)
	for i := range tr.Generations {
		live.Reset()
		live.RunGeneration(&tr.Generations[i])
		replayed.Reset()
		replayed.RunGeneration(&parsed.Generations[i])
		a, b := live.Counters().Snapshot(), replayed.Counters().Snapshot()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("generation %d: live %+v != replayed %+v", i, a, b)
		}
	}
}

// TestOpsCountersAgreeAcrossLayers checks that the algorithm layer's
// op counters, the trace layer's tallies, and the EvE model's GeneOps
// all describe the same reproduction.
func TestOpsCountersAgreeAcrossLayers(t *testing.T) {
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = 50
	r, err := evolve.NewRunner("mountaincar", cfg, 29)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{}
	r.SetRecorder(tr)
	st, err := r.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g := tr.Last()
	if g == nil {
		t.Fatal("no trace generation")
	}
	traceOps := g.Crossovers() + g.Mutations()
	statsOps := st.CrossoverOps + st.MutationOps
	if traceOps != statsOps {
		t.Fatalf("trace ops %d != stats ops %d", traceOps, statsOps)
	}
	e := eve.New(eve.DefaultConfig(64, noc.MulticastTree), nil)
	e.RunGeneration(g)
	if ops := e.Counters().Snapshot().Int("pe/gene_ops"); ops != traceOps {
		t.Fatalf("EvE replay ops %d != trace ops %d", ops, traceOps)
	}
}

// TestHWAndSWReproductionSameRegime compares the functional hardware
// datapath against software NEAT on the same parent population: the
// per-child op counts must land in the same regime (they are different
// stochastic processes, but both stream every gene of every child).
func TestHWAndSWReproductionSameRegime(t *testing.T) {
	cfg := neat.DefaultConfig(4, 2)
	cfg.PopulationSize = 60
	pop, err := neat.NewPopulation(cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	var counts neat.OpCounts
	pop.SetRecorder(&counts)
	for i, g := range pop.Genomes {
		g.Fitness = float64(i)
	}
	snapshot := append([]*gene.Genome(nil), pop.Genomes...)
	if _, err := pop.Epoch(); err != nil {
		t.Fatal(err)
	}
	swOps := counts.Total()

	h := eve.NewHardwareReproducer(31)
	children := h.NextGeneration(snapshot, 60)
	if len(children) != 60 {
		t.Fatal("hardware reproduction short")
	}
	hwStreamed := int64(h.Stats.CyclesStreamed)
	ratio := float64(swOps) / float64(hwStreamed)
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("sw ops (%d) and hw streamed genes (%d) in different regimes (ratio %.2f)",
			swOps, hwStreamed, ratio)
	}
}

// TestEnergyOrdersOfMagnitude pins the headline: for the same measured
// generation, the chip's evolution energy sits orders of magnitude
// under every baseline's.
func TestEnergyOrdersOfMagnitude(t *testing.T) {
	sys, err := core.New(core.Config{
		Workload: "alien-ram", Seed: 37, Population: 32, HardwareInLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunGeneration()
	if err != nil {
		t.Fatal(err)
	}
	chipJ := res.HW.Float("eve/energy_pj") * 1e-12
	if chipJ <= 0 {
		t.Fatal("no evolution energy")
	}
	// A Python-class CPU at ~1 µs and 45 W per gene op:
	ops := float64(res.Stats.CrossoverOps + res.Stats.MutationOps)
	cpuJ := ops * 1e-6 * 45
	orders := math.Log10(cpuJ / chipJ)
	if orders < 3 {
		t.Fatalf("only %.1f orders of magnitude vs software CPU", orders)
	}
	t.Logf("evolution energy: chip %.3g J vs CPU-model %.3g J (%.1f orders)",
		chipJ, cpuJ, orders)
}
