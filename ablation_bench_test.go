package repro

// Ablations of the design choices DESIGN.md calls out — each isolates
// one decision the paper makes and measures what it buys, beyond the
// figures the paper itself reports:
//
//   - greedy (GLR-aware) vs FIFO PE allocation;
//   - multicast tree vs point-to-point NoC (at the engine level);
//   - packed (PLP) vs serial ADAM scheduling;
//   - speciation + fitness sharing on vs off;
//   - global vs hardware-local node-id assignment;
//   - genome buffer resident on-chip vs spilled to DRAM;
//   - direct vs CPPN (indirect) encoding;
//   - evolution alone vs the Lamarckian hybrid;
//   - quantized (hardware) vs full-precision inference fidelity.
//
// Each ablation is one function returning its metrics by name.
// BenchmarkAblations times and reports them; TestPaperClaims checks
// them against the claims table.

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

// ablations lists every ablation by name. Each measure function gets
// the generation ablationTrace returns, which only the EvE ablations
// replay.
var ablations = []struct {
	name    string
	measure func(tb testing.TB, g *trace.Generation) map[string]float64
}{
	{"pe-allocation", ablatePEAllocation},
	{"noc", ablateNoC},
	{"adam-scheduling", ablateADAMScheduling},
	{"speciation", ablateSpeciation},
	{"node-ids", ablateNodeIDs},
	{"buffer-spill", ablateBufferSpill},
	{"indirect-encoding", ablateIndirectEncoding},
	{"lamarckian", ablateLamarckian},
	{"quantization", ablateQuantization},
}

// BenchmarkAblations times each ablation and reports its metrics.
func BenchmarkAblations(b *testing.B) {
	g := ablationTrace(b)
	for _, a := range ablations {
		b.Run(a.name, func(b *testing.B) {
			var m map[string]float64
			for i := 0; i < b.N; i++ {
				m = a.measure(b, g)
			}
			for unit, v := range m {
				b.ReportMetric(v, unit)
			}
		})
	}
}

// ablationTrace evolves alien-ram briefly and returns the last
// reproduction generation (heavy GLP/GLR workload).
func ablationTrace(tb testing.TB) *trace.Generation {
	tb.Helper()
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = 48
	r, err := evolve.NewRunner("alien-ram", cfg, 11)
	if err != nil {
		tb.Fatal(err)
	}
	tr := &trace.Trace{}
	r.SetRecorder(tr)
	if _, err := r.Run(context.Background(), 2); err != nil {
		tb.Fatal(err)
	}
	return tr.Last()
}

// ablatePEAllocation replays the generation on few PEs (many waves,
// where co-scheduling siblings matters) under greedy and FIFO
// allocation.
func ablatePEAllocation(_ testing.TB, g *trace.Generation) map[string]float64 {
	gc := eve.DefaultConfig(8, noc.MulticastTree)
	fc := gc
	fc.Allocation = eve.AllocFIFO
	greedy := eve.New(gc, nil).RunGeneration(g)
	fifo := eve.New(fc, nil).RunGeneration(g)
	return map[string]float64{"fifo/greedy-reads": float64(fifo.SRAMReads) / float64(greedy.SRAMReads)}
}

func ablateNoC(_ testing.TB, g *trace.Generation) map[string]float64 {
	mc := eve.New(eve.DefaultConfig(256, noc.MulticastTree), nil).RunGeneration(g)
	p2p := eve.New(eve.DefaultConfig(256, noc.PointToPoint), nil).RunGeneration(g)
	return map[string]float64{
		"p2p/mcast-reads":  float64(p2p.SRAMReads) / float64(mc.SRAMReads),
		"p2p/mcast-energy": p2p.SRAMEnergyPJ / mc.SRAMEnergyPJ,
	}
}

// ablateADAMScheduling runs a population of cartpole-sized plans
// packed and serially.
func ablateADAMScheduling(tb testing.TB, _ *trace.Generation) map[string]float64 {
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
		tb.Fatal(err)
	}
	jobs := make([]adam.Job, 150)
	for i := range jobs {
		jobs[i] = adam.Job{Plan: n.BuildPlan(), Steps: 200}
	}
	pc := adam.DefaultConfig()
	sc := pc
	sc.Packed = false
	packed := adam.New(pc).RunGeneration(jobs)
	serial := adam.New(sc).RunGeneration(jobs)
	return map[string]float64{"serial/packed-cycles": float64(serial.ComputeCycles) / float64(packed.ComputeCycles)}
}

// ablateSpeciation compares convergence with and without NEAT's
// speciation protection (compat threshold huge → one species).
func ablateSpeciation(tb testing.TB, _ *trace.Generation) map[string]float64 {
	run := func(threshold float64) float64 {
		cfg := neat.DefaultConfig(1, 1)
		cfg.PopulationSize = 64
		cfg.CompatThreshold = threshold
		r, err := evolve.NewRunner("lunarlander", cfg, 9)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := r.Run(context.Background(), 15); err != nil {
			tb.Fatal(err)
		}
		return r.Last().MaxFitness
	}
	return map[string]float64{"fitness-speciated": run(3.0), "fitness-single-species": run(1e9)}
}

// ablateNodeIDs compares the neat-python global counter against the
// hardware-local max+1 rule.
func ablateNodeIDs(tb testing.TB, _ *trace.Generation) map[string]float64 {
	run := func(local bool) (float64, float64) {
		cfg := neat.DefaultConfig(1, 1)
		cfg.PopulationSize = 64
		cfg.LocalNodeIDs = local
		r, err := evolve.NewRunner("mountaincar", cfg, 13)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := r.Run(context.Background(), 10); err != nil {
			tb.Fatal(err)
		}
		return r.Last().MaxFitness, float64(r.Last().TotalGenes)
	}
	gFit, gGenes := run(false)
	lFit, lGenes := run(true)
	return map[string]float64{
		"fitness-global-ids": gFit, "fitness-local-ids": lFit,
		"genes-global": gGenes, "genes-local": lGenes,
	}
}

// ablateBufferSpill measures the DRAM-backing penalty: the same
// generation accounted with the working set resident on-chip vs
// spilled past the 1.5 MB genome buffer ("backed by DRAM for cases
// when the genomes do not fit").
func ablateBufferSpill(_ testing.TB, g *trace.Generation) map[string]float64 {
	energy := func(residency int) float64 {
		e := eve.New(eve.DefaultConfig(256, noc.MulticastTree), nil)
		e.Buffer().SetResidency(residency * e.Buffer().Config().CapacityWords())
		e.RunGeneration(g)
		return e.Buffer().EnergyPJ()
	}
	onchip := energy(1)
	return map[string]float64{"spill-energy-x": energy(4) / onchip}
}

// ablateIndirectEncoding measures the HyperNEAT buffer win:
// genome-buffer genes under direct vs CPPN encoding for a RAM-scale
// substrate.
func ablateIndirectEncoding(tb testing.TB, _ *trace.Generation) map[string]float64 {
	cfg := hypernet.CPPNConfig()
	cfg.PopulationSize = 10
	pop, err := neat.NewPopulation(cfg, 9)
	if err != nil {
		tb.Fatal(err)
	}
	sub, err := hypernet.GridSubstrate(128, 64, 18)
	if err != nil {
		tb.Fatal(err)
	}
	sub.WeightThreshold = 0
	cppn := pop.Genomes[0]
	pheno, err := hypernet.Decode(cppn, sub)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]float64{"genes-compression-x": hypernet.CompressionRatio(cppn, pheno)}
}

// ablateLamarckian measures the future-directions hybrid: evolution
// plus local weight refinement of the elite, at equal generation
// budgets.
func ablateLamarckian(tb testing.TB, _ *trace.Generation) map[string]float64 {
	run := func(refine bool) float64 {
		cfg := neat.DefaultConfig(1, 1)
		cfg.PopulationSize = 40
		r, err := evolve.NewRunner("mountaincar", cfg, 21)
		if err != nil {
			tb.Fatal(err)
		}
		best := 0.0
		for g := 0; g < 6; g++ {
			st, err := r.Step(context.Background())
			if err != nil {
				tb.Fatal(err)
			}
			if st.MaxFitness > best {
				best = st.MaxFitness
			}
			if refine {
				res, err := r.RefineBest(10, uint64(g))
				if err != nil {
					tb.Fatal(err)
				}
				if res.FitnessEnd > best {
					best = res.FitnessEnd
				}
			}
		}
		return best
	}
	return map[string]float64{"fitness-evolution-only": run(false), "fitness-lamarckian": run(true)}
}

// ablateQuantization measures the inference deviation introduced by
// the 64-bit gene word's fixed-point attributes.
func ablateQuantization(tb testing.TB, _ *trace.Generation) map[string]float64 {
	cfg := neat.DefaultConfig(4, 2)
	cfg.PopulationSize = 30
	pop, err := neat.NewPopulation(cfg, 5)
	if err != nil {
		tb.Fatal(err)
	}
	for gen := 0; gen < 6; gen++ {
		for i, g := range pop.Genomes {
			g.Fitness = float64(i % 11)
		}
		if _, err := pop.Epoch(); err != nil {
			tb.Fatal(err)
		}
	}
	obs := []float64{0.2, -0.4, 1.1, 0.6}
	worst := 0.0
	for _, g := range pop.Genomes {
		full, err := network.New(g)
		if err != nil {
			tb.Fatal(err)
		}
		quant, err := network.New(gene.FromWords(g.ID, g.Pack()))
		if err != nil {
			tb.Fatal(err)
		}
		a, _ := full.Feed(obs)
		q, _ := quant.Feed(obs)
		for j := range a {
			if d := math.Abs(a[j] - q[j]); d > worst {
				worst = d
			}
		}
	}
	return map[string]float64{"max-output-error": worst}
}
