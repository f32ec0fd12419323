package network

import (
	"testing"

	"repro/internal/gene"
	"repro/internal/neat"
	"repro/internal/rng"
)

// evolvedGenome grows a population for gens epochs under random fitness
// and returns its largest genome — a realistic mid-run phenotype with
// hidden nodes, disabled connections, and irregular fan-in.
func evolvedGenome(tb testing.TB, inputs, outputs, popSize, gens int, seed uint64) *gene.Genome {
	tb.Helper()
	cfg := neat.DefaultConfig(inputs, outputs)
	cfg.PopulationSize = popSize
	pop, err := neat.NewPopulation(cfg, seed)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(seed ^ 0x9E37)
	for g := 0; g < gens; g++ {
		for _, gn := range pop.Genomes {
			gn.Fitness = r.Float64()
		}
		if _, err := pop.Epoch(); err != nil {
			tb.Fatal(err)
		}
	}
	best := pop.Genomes[0]
	for _, gn := range pop.Genomes {
		if gn.NumGenes() > best.NumGenes() {
			best = gn
		}
	}
	return best
}

// BenchmarkNetworkCompile measures the genome→phenotype compile pass on
// a mid-evolution genome (the per-genome-per-generation cost PLP pays).
func BenchmarkNetworkCompile(b *testing.B) {
	g := evolvedGenome(b, 8, 4, 64, 12, 42)
	b.ReportMetric(float64(g.NumGenes()), "genes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkFeed measures one inference pass on a compiled
// mid-evolution phenotype (the per-environment-step cost).
func BenchmarkNetworkFeed(b *testing.B) {
	g := evolvedGenome(b, 8, 4, 64, 12, 42)
	n, err := New(g)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]float64, n.NumInputs())
	for i := range obs {
		obs[i] = 0.25 * float64(i+1)
	}
	b.ReportMetric(float64(n.NumEdges()), "edges")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Feed(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkFeedBatch measures one batched inference pass — the
// same mid-evolution phenotype as BenchmarkNetworkFeed, 32 lanes in
// lock-step — reported as ns per lane-inference so the number is
// directly comparable to BenchmarkNetworkFeed's ns/op.
func BenchmarkNetworkFeedBatch(b *testing.B) {
	g := evolvedGenome(b, 8, 4, 64, 12, 42)
	var bld Builder
	pr, err := bld.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	const width = 32
	bp := NewBatch(pr, width)
	st := bp.NewState()
	obs := bp.ObsPlane(st)
	for i := range obs {
		obs[i] = 0.25 * float64(i%9)
	}
	b.ReportMetric(float64(bp.NumEdges()), "edges")
	b.ReportMetric(width, "lanes")
	b.ResetTimer()
	for i := 0; i < b.N; i += width {
		if err := bp.FeedBatchInto(st, width); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkFeedBatchNarrow measures the batch pass in the shape
// most control-workload calls have: past generation 0 a topology group
// is usually one genome's 2–3 episodes, so FeedBatchInto runs a
// width-4 batch with 3 active lanes. The genomes are evolved with the
// input and output widths of mountaincar (2→3), lunarlander (8→4) and
// bipedal (24→4); the result is reported in ns per active lane-step.
func BenchmarkNetworkFeedBatchNarrow(b *testing.B) {
	for _, c := range []struct {
		name    string
		in, out int
	}{{"in2", 2, 3}, {"in8", 8, 4}, {"in24", 24, 4}} {
		b.Run(c.name, func(b *testing.B) {
			g := evolvedGenome(b, c.in, c.out, 64, 12, 42)
			var bld Builder
			pr, err := bld.Compile(g)
			if err != nil {
				b.Fatal(err)
			}
			const width, active = 4, 3
			bp := NewBatch(pr, width)
			st := bp.NewState()
			obs := bp.ObsPlane(st)
			for i := range obs {
				obs[i] = 0.25 * float64(i%9)
			}
			b.ReportMetric(float64(bp.NumEdges()), "edges")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bp.FeedBatchInto(st, active); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*active), "ns/lane-step")
		})
	}
}
