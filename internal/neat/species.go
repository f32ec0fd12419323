package neat

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/gene"
)

// CompatDistance computes the NEAT compatibility distance between two
// genomes:
//
//	δ = c_d · U/N + c_w · W̄
//
// where U is the number of unmatched (disjoint or excess) genes, N the
// size of the larger genome, and W̄ the mean attribute distance of
// matching genes. Matching is by key, following neat-python. This is the
// niche metric behind speciation (Section II-D).
//
// Gene alignment is a linear merge-join over the two genomes' sorted
// clusters (Nodes ascending by id, Conns ascending by (src, dst) — the
// invariant gene.Genome maintains and Validate enforces), O(G) per pair
// instead of the per-gene binary search of the pre-kernel reference
// (slowCompatDistance in kernel_test.go). Matched attribute distances
// accumulate in ascending key order — the same float addition order as
// the reference — so the result is bit-identical to it (pinned by
// TestCompatDistanceMatchesReference).
func CompatDistance(a, b *gene.Genome, cfg *Config) float64 {
	if a.NumGenes() == 0 && b.NumGenes() == 0 {
		return 0
	}
	var unmatched int
	var attrDist float64
	var matched int

	i, j := 0, 0
	for i < len(a.Nodes) && j < len(b.Nodes) {
		an, bn := a.Nodes[i].NodeID, b.Nodes[j].NodeID
		switch {
		case an == bn:
			attrDist += nodeDistance(a.Nodes[i], b.Nodes[j])
			matched++
			i++
			j++
		case an < bn:
			unmatched++
			i++
		default:
			unmatched++
			j++
		}
	}
	unmatched += (len(a.Nodes) - i) + (len(b.Nodes) - j)

	i, j = 0, 0
	for i < len(a.Conns) && j < len(b.Conns) {
		ac, bc := a.Conns[i], b.Conns[j]
		switch {
		case ac.Src == bc.Src && ac.Dst == bc.Dst:
			attrDist += connDistance(ac, bc)
			matched++
			i++
			j++
		case ac.Src < bc.Src || (ac.Src == bc.Src && ac.Dst < bc.Dst):
			unmatched++
			i++
		default:
			unmatched++
			j++
		}
	}
	unmatched += (len(a.Conns) - i) + (len(b.Conns) - j)

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

// nodeDistance is the attribute distance of two homologous node genes
// (neat-python's node gene distance).
func nodeDistance(a, b gene.Node) float64 {
	d := math.Abs(a.Bias-b.Bias) + math.Abs(a.Response-b.Response)
	if a.Activation != b.Activation {
		d++
	}
	if a.Aggregation != b.Aggregation {
		d++
	}
	return d
}

// connDistance is the attribute distance of two homologous connection
// genes.
func connDistance(a, b gene.Conn) float64 {
	d := math.Abs(a.Weight - b.Weight)
	if a.Enabled != b.Enabled {
		d++
	}
	return d
}

// Species is a niche of structurally similar genomes sharing fitness.
type Species struct {
	ID             int
	Representative *gene.Genome
	Members        []*gene.Genome

	// BestFitness is the best raw fitness the species ever achieved;
	// LastImproved is the generation it last rose — the stagnation
	// inputs.
	BestFitness  float64
	LastImproved int
	Created      int
}

// Stagnant reports whether the species has gone maxStagnation
// generations without improving.
func (s *Species) Stagnant(generation, maxStagnation int) bool {
	return generation-s.LastImproved > maxStagnation
}

// MeanAdjustedFitness returns the fitness-sharing value: the species'
// mean member fitness. Sharing by species size is implicit — a species'
// reproduction quota is proportional to its mean, not its sum, so large
// species do not swamp small ones and young topological innovations
// survive long enough to optimize (the paper's "fitness sharing").
func (s *Species) MeanAdjustedFitness() float64 {
	if len(s.Members) == 0 {
		return 0
	}
	var sum float64
	for _, m := range s.Members {
		sum += m.Fitness
	}
	return sum / float64(len(s.Members))
}

// best returns the fittest member, or nil for an empty species.
func (s *Species) best() *gene.Genome {
	var b *gene.Genome
	for _, m := range s.Members {
		if b == nil || m.Fitness > b.Fitness {
			b = m
		}
	}
	return b
}

// distKey is the distance-memo key: the unordered pair of phenotype
// version stamps. CompatDistance is exactly symmetric (matched
// attribute distances are |a-b| terms summed in ascending key order
// regardless of argument order), so the pair is normalized lo ≤ hi and
// one entry serves both orientations.
type distKey struct{ lo, hi int64 }

func pairKey(a, b int64) distKey {
	if a > b {
		a, b = b, a
	}
	return distKey{lo: a, hi: b}
}

// speciator is the speciation kernel's cross-generation state: the
// version-stamp-keyed distance memo and the reusable scratch of the
// parallel distance pass. It lives on the Population (one per
// population, never serialized — a restored population starts cold,
// which only costs one generation of memo warm-up).
//
// Memo soundness: a phenotype version stamp identifies one exact
// (topology, attributes) gene state — stamps are process-unique, copied
// by Clone and replaced by every mutation (see gene.Genome). Two
// genomes carry the same stamp only when one is an unmodified clone of
// the other, so a distance keyed by the stamp pair can never alias two
// different gene states. Elites and unmodified clones cross generations
// carrying their parent's stamp, which is what makes re-measuring a
// surviving representative against last generation's elite a memo hit.
//
// Eviction is generational: lookups promote entries from the previous
// epoch's map into the current one, and endEpoch discards everything
// not touched for two epochs — the live set (population × species) is
// small, so the memo stays bounded at roughly two generations of pairs.
type speciator struct {
	// workers bounds the parallel distance pass; 0 means GOMAXPROCS.
	// Assignment is always serial regardless — only the pure distance
	// computations fan out.
	workers int

	memo map[distKey]float64 // current-epoch entries
	prev map[distKey]float64 // previous-epoch entries (promotion source)

	// Scratch reused across epochs.
	rows   []float64   // P×S0 distance matrix of the parallel pass
	miss   []int       // rows indices whose pair missed the memo
	dists  [][]float64 // per-species member distances (refresh reuse)
	spares [][]float64 // retired dists rows for reuse
}

// lookup consults the two-generation memo, promoting previous-epoch
// hits into the current epoch.
func (sp *speciator) lookup(k distKey) (float64, bool) {
	if d, ok := sp.memo[k]; ok {
		return d, true
	}
	if d, ok := sp.prev[k]; ok {
		sp.memo[k] = d
		return d, true
	}
	return 0, false
}

// distance returns the memoized compatibility distance between a genome
// and a representative, computing and recording it on a miss. Serial
// use only (assignment pass); the parallel pass pre-fills the memo.
func (sp *speciator) distance(a, b *gene.Genome, cfg *Config) float64 {
	k := pairKey(a.Version(), b.Version())
	if d, ok := sp.lookup(k); ok {
		return d
	}
	d := CompatDistance(a, b, cfg)
	sp.memo[k] = d
	return d
}

// endEpoch rotates the memo generations: entries untouched for two
// epochs are discarded, the retired map's storage is reused.
func (sp *speciator) endEpoch() {
	old := sp.prev
	sp.prev = sp.memo
	clear(old)
	sp.memo = old
}

// parallelism resolves the worker count for n independent distance
// computations: the configured cap (GOMAXPROCS when unset — an explicit
// cap is honored as given, so tests can force real fan-out on a
// single-core host; the Runner clamps its cap to GOMAXPROCS before
// handing it down), and not worth fanning out at all below a small
// floor.
func (sp *speciator) parallelism(n int) int {
	w := sp.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	// Each worker should own a meaningful chunk; tiny batches stay
	// serial (goroutine startup would dominate).
	const minChunk = 16
	if max := n / minChunk; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// speciate partitions genomes into species. Existing species keep their
// identity via representatives; genomes join the species whose
// representative is closest within the compatibility threshold, and
// found new species otherwise. Representatives are refreshed to the
// member closest to the previous representative (neat-python
// semantics).
//
// The kernel splits the pass in two: the P×S0 distance rows against the
// surviving representatives are pure in all inputs and are computed
// up front — memo first, misses in parallel over bounded workers — and
// the assignment walk itself stays serial and order-identical to the
// pre-kernel reference loop (speciateReference in kernel_test.go),
// reading distances from the precomputed rows (distances to species
// founded mid-walk are memoized on demand). Every distance recorded
// during assignment is reused for the representative refresh, which
// the reference recomputed from scratch. Speciation consumes no PRNG
// state and every distance is bit-equal to the reference's, so the
// resulting partition — and everything downstream of it — is
// byte-identical (pinned by TestEpochKernelMatchesReference).
func (sp *speciator) speciate(genomes []*gene.Genome, prev []*Species, cfg *Config, generation int, nextSpeciesID *int) []*Species {
	species := make([]*Species, 0, len(prev))
	for _, s := range prev {
		species = append(species, &Species{
			ID:             s.ID,
			Representative: s.Representative,
			BestFitness:    s.BestFitness,
			LastImproved:   s.LastImproved,
			Created:        s.Created,
		})
	}

	if sp.memo == nil {
		sp.memo = make(map[distKey]float64)
		sp.prev = make(map[distKey]float64)
	}

	// Distance rows vs the surviving representatives: memo hits fill
	// directly, misses are computed in parallel. Version stamps are
	// assigned (lazily) here, on this goroutine, so the workers only
	// ever read the genomes.
	s0 := len(species)
	rows := sp.rows[:0]
	if cap(rows) < len(genomes)*s0 {
		rows = make([]float64, len(genomes)*s0)
	} else {
		rows = rows[:len(genomes)*s0]
	}
	sp.rows = rows
	miss := sp.miss[:0]
	for gi, g := range genomes {
		vg := g.Version()
		for si, s := range species {
			k := pairKey(vg, s.Representative.Version())
			if d, ok := sp.lookup(k); ok {
				rows[gi*s0+si] = d
			} else {
				miss = append(miss, gi*s0+si)
			}
		}
	}
	sp.miss = miss
	if workers := sp.parallelism(len(miss)); workers > 1 {
		var wg sync.WaitGroup
		chunk := (len(miss) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(miss))
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(part []int) {
				defer wg.Done()
				for _, idx := range part {
					rows[idx] = CompatDistance(genomes[idx/s0], species[idx%s0].Representative, cfg)
				}
			}(miss[lo:hi])
		}
		wg.Wait()
	} else {
		for _, idx := range miss {
			rows[idx] = CompatDistance(genomes[idx/s0], species[idx%s0].Representative, cfg)
		}
	}
	// Install the computed misses serially (workers never touch the
	// memo maps).
	for _, idx := range miss {
		k := pairKey(genomes[idx/s0].Version(), species[idx%s0].Representative.Version())
		sp.memo[k] = rows[idx]
	}

	// Serial assignment, order-identical to the reference: each genome
	// joins the closest in-threshold species, founding a new one
	// otherwise. dists records, per species, each member's distance to
	// the (pre-refresh) representative — the refresh input.
	dists := sp.dists[:0]
	grab := func() []float64 {
		if n := len(sp.spares); n > 0 {
			row := sp.spares[n-1][:0]
			sp.spares = sp.spares[:n-1]
			return row
		}
		return nil
	}
	for range species {
		dists = append(dists, grab())
	}
	for gi, g := range genomes {
		placed := false
		bestIdx, bestDist := -1, math.Inf(1)
		for si, s := range species {
			var d float64
			if si < s0 {
				d = rows[gi*s0+si]
			} else {
				d = sp.distance(g, s.Representative, cfg)
			}
			if d < cfg.CompatThreshold && d < bestDist {
				bestIdx, bestDist = si, d
				placed = true
			}
		}
		if placed {
			species[bestIdx].Members = append(species[bestIdx].Members, g)
			dists[bestIdx] = append(dists[bestIdx], bestDist)
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
		// The founder's distance to its own representative (itself) is
		// exactly 0 — what the reference's refresh recomputation yields
		// for identical genomes.
		dists = append(dists, append(grab(), 0))
	}

	// Drop species that attracted no members, refresh representatives
	// from the recorded assignment distances (the reference recomputed
	// every pair here), and update stagnation state.
	alive := species[:0]
	for i, s := range species {
		if len(s.Members) == 0 {
			continue
		}
		closest, closestDist := s.Members[0], math.Inf(1)
		for k, m := range s.Members {
			if d := dists[i][k]; d < closestDist {
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
	// Retire the dists rows into the spare pool for the next epoch.
	sp.spares = sp.spares[:0]
	for _, row := range dists {
		if row != nil {
			sp.spares = append(sp.spares, row)
		}
	}
	sp.dists = dists[:0]
	sp.endEpoch()
	return alive
}
