package repro

// Ablation benchmarks for the design choices DESIGN.md calls out —
// each isolates one decision the paper makes and measures what it buys,
// beyond the figures the paper itself reports:
//
//   - greedy (GLR-aware) vs FIFO PE allocation;
//   - multicast tree vs point-to-point NoC (at the engine level);
//   - packed (PLP) vs serial ADAM scheduling;
//   - speciation + fitness sharing on vs off;
//   - global vs hardware-local node-id assignment;
//   - quantized (hardware) vs full-precision inference fidelity.

import (
	"context"
	"math"
	"testing"

	"repro/internal/evolve"
	"repro/internal/gene"
	"repro/internal/hw/adam"
	"repro/internal/hw/eve"
	"repro/internal/hw/noc"
	"repro/internal/hypernet"
	"repro/internal/neat"
	"repro/internal/network"
	"repro/internal/trace"
)

// ablationTrace evolves alien-ram briefly and returns the last
// reproduction generation (heavy GLP/GLR workload).
func ablationTrace(b *testing.B) *trace.Generation {
	b.Helper()
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = 48
	r, err := evolve.NewRunner("alien-ram", cfg, 11)
	if err != nil {
		b.Fatal(err)
	}
	tr := &trace.Trace{}
	r.SetRecorder(tr)
	if _, err := r.Run(context.Background(), 2); err != nil {
		b.Fatal(err)
	}
	return tr.Last()
}

func BenchmarkAblation_PEAllocation(b *testing.B) {
	g := ablationTrace(b)
	var greedy, fifo eve.Report
	for i := 0; i < b.N; i++ {
		// Few PEs → many waves, where co-scheduling siblings matters.
		gc := eve.DefaultConfig(8, noc.MulticastTree)
		fc := gc
		fc.Allocation = eve.AllocFIFO
		greedy = eve.New(gc, nil).RunGeneration(g)
		fifo = eve.New(fc, nil).RunGeneration(g)
	}
	if greedy.SRAMReads > fifo.SRAMReads {
		b.Fatalf("greedy allocation reads more than FIFO: %d vs %d",
			greedy.SRAMReads, fifo.SRAMReads)
	}
	b.ReportMetric(float64(fifo.SRAMReads)/float64(greedy.SRAMReads), "fifo/greedy-reads")
}

func BenchmarkAblation_NoC(b *testing.B) {
	g := ablationTrace(b)
	var mc, p2p eve.Report
	for i := 0; i < b.N; i++ {
		mc = eve.New(eve.DefaultConfig(256, noc.MulticastTree), nil).RunGeneration(g)
		p2p = eve.New(eve.DefaultConfig(256, noc.PointToPoint), nil).RunGeneration(g)
	}
	if mc.SRAMReads >= p2p.SRAMReads {
		b.Fatal("multicast did not reduce SRAM reads")
	}
	b.ReportMetric(float64(p2p.SRAMReads)/float64(mc.SRAMReads), "p2p/mcast-reads")
	b.ReportMetric(p2p.SRAMEnergyPJ/mc.SRAMEnergyPJ, "p2p/mcast-energy")
}

func BenchmarkAblation_ADAMScheduling(b *testing.B) {
	// A population of cartpole-sized plans.
	g := gene.NewGenome(1)
	for i := int32(0); i < 4; i++ {
		g.PutNode(gene.NewNode(i, gene.Input))
	}
	g.PutNode(gene.NewNode(4, gene.Output))
	for i := int32(0); i < 4; i++ {
		g.PutConn(gene.NewConn(i, 4, 0.5))
	}
	n, err := network.New(g)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]adam.Job, 150)
	for i := range jobs {
		jobs[i] = adam.Job{Plan: n.BuildPlan(), Steps: 200}
	}
	var packed, serial adam.Report
	for i := 0; i < b.N; i++ {
		pc := adam.DefaultConfig()
		sc := pc
		sc.Packed = false
		packed = adam.New(pc).RunGeneration(jobs)
		serial = adam.New(sc).RunGeneration(jobs)
	}
	if packed.ComputeCycles >= serial.ComputeCycles {
		b.Fatal("packed scheduling not faster than serial")
	}
	b.ReportMetric(float64(serial.ComputeCycles)/float64(packed.ComputeCycles), "serial/packed-cycles")
}

// BenchmarkAblation_Speciation compares convergence with and without
// NEAT's speciation protection (compat threshold huge → one species).
func BenchmarkAblation_Speciation(b *testing.B) {
	run := func(threshold float64) float64 {
		cfg := neat.DefaultConfig(1, 1)
		cfg.PopulationSize = 64
		cfg.CompatThreshold = threshold
		r, err := evolve.NewRunner("lunarlander", cfg, 9)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(context.Background(), 15); err != nil {
			b.Fatal(err)
		}
		return r.Last().MaxFitness
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(3.0)
		without = run(1e9)
	}
	b.ReportMetric(with, "fitness-speciated")
	b.ReportMetric(without, "fitness-single-species")
}

// BenchmarkAblation_NodeIDAssignment compares the neat-python global
// counter against the hardware-local max+1 rule.
func BenchmarkAblation_NodeIDAssignment(b *testing.B) {
	run := func(local bool) (float64, int) {
		cfg := neat.DefaultConfig(1, 1)
		cfg.PopulationSize = 64
		cfg.LocalNodeIDs = local
		r, err := evolve.NewRunner("mountaincar", cfg, 13)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(context.Background(), 10); err != nil {
			b.Fatal(err)
		}
		return r.Last().MaxFitness, r.Last().TotalGenes
	}
	var gFit, lFit float64
	var gGenes, lGenes int
	for i := 0; i < b.N; i++ {
		gFit, gGenes = run(false)
		lFit, lGenes = run(true)
	}
	b.ReportMetric(gFit, "fitness-global-ids")
	b.ReportMetric(lFit, "fitness-local-ids")
	b.ReportMetric(float64(gGenes), "genes-global")
	b.ReportMetric(float64(lGenes), "genes-local")
}

// BenchmarkAblation_BufferSpill measures the DRAM-backing penalty: the
// same generation accounted with the working set resident on-chip vs
// spilled past the 1.5 MB genome buffer ("backed by DRAM for cases
// when the genomes do not fit").
func BenchmarkAblation_BufferSpill(b *testing.B) {
	g := ablationTrace(b)
	var onchip, spilled float64
	for i := 0; i < b.N; i++ {
		fit := eve.New(eve.DefaultConfig(256, noc.MulticastTree), nil)
		fit.Buffer().SetResidency(fit.Buffer().Config().CapacityWords())
		fit.RunGeneration(g)
		onchip = fit.Buffer().EnergyPJ()

		over := eve.New(eve.DefaultConfig(256, noc.MulticastTree), nil)
		over.Buffer().SetResidency(4 * over.Buffer().Config().CapacityWords())
		over.RunGeneration(g)
		spilled = over.Buffer().EnergyPJ()
	}
	if spilled <= onchip {
		b.Fatal("spilling did not cost energy")
	}
	b.ReportMetric(spilled/onchip, "spill-energy-x")
}

// BenchmarkAblation_IndirectEncoding measures the HyperNEAT buffer
// win: genome-buffer genes under direct vs CPPN encoding for a
// RAM-scale substrate.
func BenchmarkAblation_IndirectEncoding(b *testing.B) {
	cfg := hypernet.CPPNConfig()
	cfg.PopulationSize = 10
	pop, err := neat.NewPopulation(cfg, 9)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := hypernet.GridSubstrate(128, 64, 18)
	if err != nil {
		b.Fatal(err)
	}
	sub.WeightThreshold = 0
	var ratio float64
	for i := 0; i < b.N; i++ {
		cppn := pop.Genomes[0]
		pheno, err := hypernet.Decode(cppn, sub)
		if err != nil {
			b.Fatal(err)
		}
		ratio = hypernet.CompressionRatio(cppn, pheno)
	}
	if ratio < 50 {
		b.Fatalf("compression only %v×", ratio)
	}
	b.ReportMetric(ratio, "genes-compression-x")
}

// BenchmarkAblation_Lamarckian measures the future-directions hybrid:
// evolution plus local weight refinement of the elite, at equal
// generation budgets.
func BenchmarkAblation_Lamarckian(b *testing.B) {
	run := func(refine bool) float64 {
		cfg := neat.DefaultConfig(1, 1)
		cfg.PopulationSize = 40
		r, err := evolve.NewRunner("mountaincar", cfg, 21)
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for g := 0; g < 6; g++ {
			st, err := r.Step(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if st.MaxFitness > best {
				best = st.MaxFitness
			}
			if refine {
				res, err := r.RefineBest(10, uint64(g))
				if err != nil {
					b.Fatal(err)
				}
				if res.FitnessEnd > best {
					best = res.FitnessEnd
				}
			}
		}
		return best
	}
	var plain, hybrid float64
	for i := 0; i < b.N; i++ {
		plain = run(false)
		hybrid = run(true)
	}
	b.ReportMetric(plain, "fitness-evolution-only")
	b.ReportMetric(hybrid, "fitness-lamarckian")
}

// BenchmarkAblation_Quantization measures the inference deviation
// introduced by the 64-bit gene word's fixed-point attributes.
func BenchmarkAblation_Quantization(b *testing.B) {
	cfg := neat.DefaultConfig(4, 2)
	cfg.PopulationSize = 30
	pop, err := neat.NewPopulation(cfg, 5)
	if err != nil {
		b.Fatal(err)
	}
	for gen := 0; gen < 6; gen++ {
		for i, g := range pop.Genomes {
			g.Fitness = float64(i % 11)
		}
		if _, err := pop.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
	obs := []float64{0.2, -0.4, 1.1, 0.6}
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, g := range pop.Genomes {
			full, err := network.New(g)
			if err != nil {
				b.Fatal(err)
			}
			quant, err := network.New(gene.FromWords(g.ID, g.Pack()))
			if err != nil {
				b.Fatal(err)
			}
			a, _ := full.Feed(obs)
			q, _ := quant.Feed(obs)
			for j := range a {
				if d := math.Abs(a[j] - q[j]); d > worst {
					worst = d
				}
			}
		}
	}
	if worst > 0.05 {
		b.Fatalf("quantization error %v too large", worst)
	}
	b.ReportMetric(worst, "max-output-error")
}
