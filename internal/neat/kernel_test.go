package neat

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/env"
	"repro/internal/gene"
)

// diversify runs a few reproduction rounds with synthetic fitness so
// the population develops real topological and attribute diversity —
// multiple species, disjoint genes, perturbed weights — before a test
// or benchmark measures the kernel on it.
func diversify(tb testing.TB, p *Population, epochs int) {
	tb.Helper()
	for e := 0; e < epochs; e++ {
		for j, g := range p.Genomes {
			g.Fitness = float64((e*7 + j) % 17)
		}
		if _, err := p.Epoch(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCompatDistanceMatchesReference pins the merge-join distance
// kernel bit-identical to the binary-search reference over genuinely
// evolved genome pairs (disjoint genes, deleted nodes, perturbed
// attributes), and checks the symmetry the memo key relies on.
func TestCompatDistanceMatchesReference(t *testing.T) {
	for _, shape := range []struct{ in, out int }{{4, 2}, {16, 4}} {
		cfg := DefaultConfig(shape.in, shape.out)
		cfg.PopulationSize = 24
		p, err := NewPopulation(cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		diversify(t, p, 6)
		for i, a := range p.Genomes {
			for _, b := range p.Genomes[i:] {
				want := slowCompatDistance(a, b, &cfg)
				got := CompatDistance(a, b, &cfg)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("shape %dx%d: CompatDistance(%d,%d) = %v, reference %v",
						shape.in, shape.out, a.ID, b.ID, got, want)
				}
				rev := CompatDistance(b, a, &cfg)
				if math.Float64bits(rev) != math.Float64bits(got) {
					t.Fatalf("shape %dx%d: asymmetric distance (%d,%d): %v vs %v",
						shape.in, shape.out, a.ID, b.ID, got, rev)
				}
			}
		}
	}
}

// TestEpochKernelMatchesReference is the differential of the
// speciation kernel (memoized merge-join distances, parallel distance
// rows, refresh reuse) against the pre-kernel reference loop, across
// every workload environment shape × several seeds. Before each
// Epoch, speciateReference runs on the same genomes, a copy of the
// carried species and a copy of the next species ID; after it,
// p.Species must equal the reference partition exactly — IDs,
// representative and member pointers in order, best-fitness bits,
// stagnation and creation generations — and so must the next species
// ID. Speciation draws no PRNG state and the rest of Epoch is a single
// code path, so an identical partition pins the whole epoch.
func TestEpochKernelMatchesReference(t *testing.T) {
	// One env name per workload family (workload.go); shapes dedupe —
	// the four *-ram workloads share the 128-observation RAM shape.
	envNames := []string{
		"cartpole", "mountaincar", "acrobot", "lunarlander",
		"bipedal", "mario", "airraid-ram", "alien-ram",
		"asterix-ram", "amidar-ram",
	}
	type shape struct{ in, out int }
	seen := map[shape]bool{}
	for _, name := range envNames {
		probe, err := env.New(name)
		if err != nil {
			t.Fatal(err)
		}
		sh := shape{probe.ObservationSize(), probe.ActionSize()}
		if seen[sh] {
			continue
		}
		seen[sh] = true

		// The default threshold keeps these young populations in one
		// species; 0.5 splits them into up to 16, so assignment chooses
		// among several in-threshold species.
		for _, threshold := range []float64{DefaultConfig(1, 1).CompatThreshold, 0.5} {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := DefaultConfig(sh.in, sh.out)
				cfg.PopulationSize = 48
				cfg.CompatThreshold = threshold
				p, err := NewPopulation(cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				// Force real fan-out in the parallel distance pass even on
				// a single-core host.
				p.EpochParallelism = 4
				for gen := 0; gen < 5; gen++ {
					label := fmt.Sprintf("%s threshold %v seed %d gen %d", name, threshold, seed, gen)
					if !epochMatchesReference(t, p, gen, label) {
						break
					}
				}
			}
		}
	}
}

// epochMatchesReference assigns generation gen's synthetic fitness,
// runs speciateReference on copies of the carried species and next
// species ID, runs p.Epoch, and fails unless the kernel's partition is
// the reference's exactly. It reports whether the epoch succeeded.
func epochMatchesReference(t *testing.T, p *Population, gen int, label string) bool {
	t.Helper()
	for j, g := range p.Genomes {
		g.Fitness = float64((gen*13+j*7)%23) / 3
	}
	carried := make([]*Species, len(p.Species))
	for i, s := range p.Species {
		carried[i] = &Species{ID: s.ID, Representative: s.Representative,
			BestFitness: s.BestFitness, LastImproved: s.LastImproved, Created: s.Created}
	}
	wantNext := p.nextSpeciesID
	want := speciateReference(p.Genomes, carried, &p.Config, p.Generation, &wantNext)

	_, err := p.Epoch()
	if len(p.Species) != len(want) {
		t.Fatalf("%s: kernel has %d species, reference %d", label, len(p.Species), len(want))
	}
	for i, got := range p.Species {
		w := want[i]
		if got.ID != w.ID || got.Representative != w.Representative ||
			!slices.Equal(got.Members, w.Members) ||
			math.Float64bits(got.BestFitness) != math.Float64bits(w.BestFitness) ||
			got.LastImproved != w.LastImproved || got.Created != w.Created {
			t.Fatalf("%s: species %d diverged\n"+
				"kernel:    id %d rep %d members %d best %v improved %d created %d\n"+
				"reference: id %d rep %d members %d best %v improved %d created %d",
				label, i,
				got.ID, got.Representative.ID, len(got.Members), got.BestFitness, got.LastImproved, got.Created,
				w.ID, w.Representative.ID, len(w.Members), w.BestFitness, w.LastImproved, w.Created)
		}
	}
	if p.nextSpeciesID != wantNext {
		t.Fatalf("%s: next species id %d, reference %d", label, p.nextSpeciesID, wantNext)
	}
	return err == nil
}

// TestSpeciateMemoWarmPath pins that a warm memo (the steady daemon
// state) still yields the identical partition: same population, two
// speciators — one cold, one that already speciated the same inputs —
// must produce identical species.
func TestSpeciateMemoWarmPath(t *testing.T) {
	cfg := DefaultConfig(8, 4)
	cfg.PopulationSize = 32
	p, err := NewPopulation(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	diversify(t, p, 5)

	var warm speciator
	id1 := p.nextSpeciesID
	first := warm.speciate(p.Genomes, p.Species, &p.Config, p.Generation, &id1)
	id2 := p.nextSpeciesID
	second := warm.speciate(p.Genomes, p.Species, &p.Config, p.Generation, &id2)

	var cold speciator
	id3 := p.nextSpeciesID
	ref := cold.speciate(p.Genomes, p.Species, &p.Config, p.Generation, &id3)

	if id1 != id2 || id1 != id3 {
		t.Fatalf("species id allocation diverged: %d %d %d", id1, id2, id3)
	}
	for _, got := range [][]*Species{first, second} {
		if len(got) != len(ref) {
			t.Fatalf("species count %d, want %d", len(got), len(ref))
		}
		for i := range got {
			if got[i].ID != ref[i].ID ||
				got[i].Representative.ID != ref[i].Representative.ID ||
				len(got[i].Members) != len(ref[i].Members) {
				t.Fatalf("species %d diverged: {id %d rep %d n %d} vs {id %d rep %d n %d}",
					i, got[i].ID, got[i].Representative.ID, len(got[i].Members),
					ref[i].ID, ref[i].Representative.ID, len(ref[i].Members))
			}
			for j := range got[i].Members {
				if got[i].Members[j].ID != ref[i].Members[j].ID {
					t.Fatalf("species %d member %d: %d vs %d",
						i, j, got[i].Members[j].ID, ref[i].Members[j].ID)
				}
			}
		}
	}
}

// benchPopulation builds a diversified RAM-scale population — the
// heaviest workload shape, where speciation dominated generation time
// before the kernel.
func benchPopulation(tb testing.TB, inputs, outputs, pop, epochs int) *Population {
	tb.Helper()
	cfg := DefaultConfig(inputs, outputs)
	cfg.PopulationSize = pop
	p, err := NewPopulation(cfg, 3)
	if err != nil {
		tb.Fatal(err)
	}
	diversify(tb, p, epochs)
	return p
}

// BenchmarkSpeciate measures one cold speciation pass (fresh speciator
// per iteration — no memo carry-over, so the number isolates the
// merge-join distance kernel) at the RAM workload scale.
func BenchmarkSpeciate(b *testing.B) {
	p := benchPopulation(b, 128, 18, 150, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := p.nextSpeciesID
		speciate(p.Genomes, p.Species, &p.Config, p.Generation, &id)
	}
}

// BenchmarkEpoch measures the full reproduction round — speciation
// (warm memo, the steady state), culling, apportionment, crossover,
// mutation — at the RAM workload scale.
func BenchmarkEpoch(b *testing.B) {
	p := benchPopulation(b, 128, 18, 150, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range p.Genomes {
			g.Fitness = float64((i + j) % 13)
		}
		if _, err := p.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
}

// slowCompatDistance is the pre-kernel reference implementation: gene
// alignment by per-gene binary search (Genome.Node/Conn/HasNode) over
// both genomes. It is the executable specification of CompatDistance —
// the differential tests pin the merge-join kernel bit-identical to
// this, and speciateReference runs on it.
func slowCompatDistance(a, b *gene.Genome, cfg *Config) float64 {
	if a.NumGenes() == 0 && b.NumGenes() == 0 {
		return 0
	}
	var unmatched int
	var attrDist float64
	var matched int

	for _, n1 := range a.Nodes {
		if n2, ok := b.Node(n1.NodeID); ok {
			attrDist += nodeDistance(n1, n2)
			matched++
		} else {
			unmatched++
		}
	}
	for _, n2 := range b.Nodes {
		if !a.HasNode(n2.NodeID) {
			unmatched++
		}
	}
	for _, c1 := range a.Conns {
		if c2, ok := b.Conn(c1.Src, c1.Dst); ok {
			attrDist += connDistance(c1, c2)
			matched++
		} else {
			unmatched++
		}
	}
	for _, c2 := range b.Conns {
		if !a.HasConn(c2.Src, c2.Dst) {
			unmatched++
		}
	}

	n := a.NumGenes()
	if b.NumGenes() > n {
		n = b.NumGenes()
	}
	if n == 0 {
		n = 1
	}
	d := cfg.CompatDisjointCoeff * float64(unmatched) / float64(n)
	if matched > 0 {
		d += cfg.CompatWeightCoeff * attrDist / float64(matched)
	}
	return d
}

// speciateReference is the pre-kernel speciation loop, verbatim: every
// distance via slowCompatDistance, serial, no memo, and a full
// recomputation pass for the representative refresh. It is the
// executable specification TestEpochKernelMatchesReference compares
// the kernel against. species is the carried-over partition with no
// members (what speciator.speciate copies from prev); it is updated in
// place.
func speciateReference(genomes []*gene.Genome, species []*Species, cfg *Config, generation int, nextSpeciesID *int) []*Species {
	for _, g := range genomes {
		placed := false
		bestIdx, bestDist := -1, math.Inf(1)
		for i, s := range species {
			d := slowCompatDistance(g, s.Representative, cfg)
			if d < cfg.CompatThreshold && d < bestDist {
				bestIdx, bestDist = i, d
				placed = true
			}
		}
		if placed {
			species[bestIdx].Members = append(species[bestIdx].Members, g)
			continue
		}
		*nextSpeciesID++
		species = append(species, &Species{
			ID:             *nextSpeciesID,
			Representative: g,
			Members:        []*gene.Genome{g},
			LastImproved:   generation,
			Created:        generation,
		})
	}

	alive := species[:0]
	for _, s := range species {
		if len(s.Members) == 0 {
			continue
		}
		closest, closestDist := s.Members[0], math.Inf(1)
		for _, m := range s.Members {
			d := slowCompatDistance(m, s.Representative, cfg)
			if d < closestDist {
				closest, closestDist = m, d
			}
		}
		s.Representative = closest
		if b := s.best(); b != nil && b.Fitness > s.BestFitness {
			s.BestFitness = b.Fitness
			s.LastImproved = generation
		}
		alive = append(alive, s)
	}
	return alive
}

// speciate runs the kernel through a fresh cold speciator.
func speciate(genomes []*gene.Genome, prev []*Species, cfg *Config, generation int, nextSpeciesID *int) []*Species {
	var sp speciator
	return sp.speciate(genomes, prev, cfg, generation, nextSpeciesID)
}
