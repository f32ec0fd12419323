package neat

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/gene"
	"repro/internal/rng"
)

// Population drives the NEAT generational loop: a set of genomes, their
// species partition, and the reproduction machinery. The caller owns the
// evaluation half of the loop (running each genome in an environment and
// assigning Fitness); Epoch performs selection and reproduction —
// exactly the split between ADAM (inference) and EvE (evolution) in the
// GeneSys SoC.
type Population struct {
	Config  Config
	Genomes []*gene.Genome
	Species []*Species
	// Generation counts completed reproduction rounds; the initial
	// random population is generation 0.
	Generation int
	// BestEver is a copy of the highest-fitness genome observed across
	// all generations.
	BestEver *gene.Genome
	// EpochParallelism bounds the workers of the speciation kernel's
	// parallel distance pass (0 = GOMAXPROCS). Purely an execution-shape
	// knob: the epoch's outputs are byte-identical at every setting —
	// the distances fanned out are pure functions of the genomes, and
	// assignment stays serial. Never serialized.
	EpochParallelism int

	rnd           *rng.XorWow
	ids           *idAssigner
	rec           Recorder
	nextGenomeID  int64
	nextSpeciesID int

	// spec is the speciation kernel's cross-generation state (distance
	// memo + scratch); scratch is the reproduction side's reusable
	// buffers. Neither is serialized — a restored population rebuilds
	// both lazily.
	spec    speciator
	scratch epochScratch
}

// epochScratch is the reproduction machinery's reusable per-population
// storage: sort buffers, the parent-use ledger, the survivor set, and
// the mutation-stage scratch. One generation's reproduction allocates
// only what escapes into the next generation (the child genomes
// themselves).
type epochScratch struct {
	members   []*gene.Genome // per-species fitness-sort buffer
	parents   []*gene.Genome // allParents concatenation buffer
	ordered   []*Species     // cullStagnant sort buffer
	survivors []*Species
	surviving map[int]bool
	parentUse map[int64]int
	means     []float64
	quotas    []int

	// Mutation-stage scratch (see mutate.go).
	srcs  []int32
	dsts  []int32
	seen  map[int32]bool
	stack []int32
}

// NewPopulation builds the initial population: PopulationSize genomes
// each with the minimal topology of Section III-B — input and output
// node genes, fully connected with zero-weight connections when
// InitialConnection is "full". The seed genome is built once and
// cloned, so the whole generation shares one phenotype version stamp:
// it compiles one program and speciation measures one distance.
func NewPopulation(cfg Config, seed uint64) (*Population, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := newPopulation(cfg, seed)
	first := p.seedGenome()
	p.Genomes = make([]*gene.Genome, cfg.PopulationSize)
	p.Genomes[0] = first
	for i := 1; i < len(p.Genomes); i++ {
		g := first.Clone()
		g.ID = p.nextGenomeID
		p.nextGenomeID++
		p.Genomes[i] = g
	}
	return p, nil
}

// newPopulation builds a population shell with no genomes: the PRNG and
// the node id assigner. cfg must already be valid.
func newPopulation(cfg Config, seed uint64) *Population {
	return &Population{
		Config: cfg,
		rnd:    rng.New(seed),
		ids:    newIDAssigner(&cfg),
	}
}

// seedGenome constructs one minimal-topology genome. Input ids precede
// output ids and the connections are generated in (src, dst) order, so
// appending keeps both clusters sorted.
func (p *Population) seedGenome() *gene.Genome {
	cfg := &p.Config
	g := gene.NewGenome(p.nextGenomeID)
	p.nextGenomeID++
	ins, outs := cfg.InputIDs(), cfg.OutputIDs()
	g.Nodes = make([]gene.Node, 0, len(ins)+len(outs))
	for _, id := range ins {
		g.Nodes = append(g.Nodes, gene.NewNode(id, gene.Input))
	}
	for _, id := range outs {
		g.Nodes = append(g.Nodes, gene.NewNode(id, gene.Output))
	}
	if cfg.InitialConnection == "full" {
		g.Conns = make([]gene.Conn, 0, len(ins)*len(outs))
		for _, in := range ins {
			for _, out := range outs {
				// Weights start at zero per the paper; the first
				// perturbation round diversifies them.
				g.Conns = append(g.Conns, gene.NewConn(in, out, 0))
			}
		}
	}
	return g
}

// SetRecorder installs a reproduction-event recorder (op counters,
// hardware traces). Pass nil to disable.
func (p *Population) SetRecorder(r Recorder) { p.rec = r }

// Best returns the fittest genome of the current generation.
func (p *Population) Best() *gene.Genome {
	var b *gene.Genome
	for _, g := range p.Genomes {
		if b == nil || g.Fitness > b.Fitness {
			b = g
		}
	}
	return b
}

// MeanFitness returns the current generation's mean fitness.
func (p *Population) MeanFitness() float64 {
	if len(p.Genomes) == 0 {
		return 0
	}
	var sum float64
	for _, g := range p.Genomes {
		sum += g.Fitness
	}
	return sum / float64(len(p.Genomes))
}

// TotalGenes returns the gene count summed over the population — the
// Fig. 4(b) metric and, times gene.WordBytes, the genome-buffer
// footprint of Fig. 5(b).
func (p *Population) TotalGenes() int {
	n := 0
	for _, g := range p.Genomes {
		n += g.NumGenes()
	}
	return n
}

// FootprintBytes is the genome-buffer SRAM footprint of the whole
// generation.
func (p *Population) FootprintBytes() int { return p.TotalGenes() * gene.WordBytes }

// GeneComposition returns the population-wide node and connection gene
// counts (Fig. 11(a)).
func (p *Population) GeneComposition() (nodes, conns int) {
	for _, g := range p.Genomes {
		nodes += len(g.Nodes)
		conns += len(g.Conns)
	}
	return nodes, conns
}

// SpeciesInfo is the per-species snapshot exposed in ReproStats.
type SpeciesInfo struct {
	ID          int
	Size        int
	BestFitness float64
	// Age is generations since the species was founded.
	Age int
	// Stagnant marks species culled this round for lack of progress.
	Stagnant bool
}

// ReproStats summarizes one reproduction round.
type ReproStats struct {
	Generation int
	// NumSpecies after speciation, before reproduction.
	NumSpecies int
	// Species snapshots, ordered by descending best fitness.
	Species []SpeciesInfo
	// Offspring actually produced (== population size).
	Offspring int
	// Elites copied verbatim.
	Elites int
	// ParentUse maps parent genome id → number of children it
	// contributed to (either slot). The map is reused scratch: it is
	// valid until the population's next Epoch call (copy it to retain).
	ParentUse map[int64]int
	// FittestParentID / FittestParentReuse report how many children the
	// generation's fittest genome parented — the genome-level-reuse
	// opportunity of Fig. 4(c).
	FittestParentID    int64
	FittestParentReuse int
	// MaxParentReuse is the reuse of whichever parent was used most.
	MaxParentReuse int
	// SpeciateDur is the wall-clock time of the speciation phase within
	// this epoch — observability only, deliberately excluded from
	// serialization so histories stay byte-identical across hosts.
	SpeciateDur time.Duration `json:"-"`
}

// Epoch runs selection and reproduction: speciates the evaluated
// population, culls stagnant species, apportions offspring by shared
// fitness, and produces the next generation through elitism, crossover
// and mutation. Fitness values must be assigned before calling.
func (p *Population) Epoch() (ReproStats, error) {
	cfg := &p.Config
	p.ids.newGeneration()
	if gs, ok := p.rec.(GenerationStarter); ok {
		gs.StartGeneration(p.Generation, p.Genomes)
	}

	// Track the best genome ever seen.
	if b := p.Best(); b != nil && (p.BestEver == nil || b.Fitness > p.BestEver.Fitness) {
		p.BestEver = b.Clone()
	}

	specStart := time.Now()
	p.spec.workers = p.EpochParallelism
	p.Species = p.spec.speciate(p.Genomes, p.Species, cfg, p.Generation, &p.nextSpeciesID)
	specDur := time.Since(specStart)

	if p.scratch.parentUse == nil {
		p.scratch.parentUse = make(map[int64]int)
	} else {
		clear(p.scratch.parentUse)
	}
	stats := ReproStats{
		Generation:  p.Generation,
		NumSpecies:  len(p.Species),
		ParentUse:   p.scratch.parentUse,
		SpeciateDur: specDur,
	}

	survivors := p.cullStagnant()
	if len(survivors) == 0 {
		return stats, fmt.Errorf("neat: generation %d: all species extinct", p.Generation)
	}
	if p.scratch.surviving == nil {
		p.scratch.surviving = make(map[int]bool, len(survivors))
	} else {
		clear(p.scratch.surviving)
	}
	surviving := p.scratch.surviving
	for _, s := range survivors {
		surviving[s.ID] = true
	}
	stats.Species = make([]SpeciesInfo, 0, len(p.Species))
	for _, s := range p.Species {
		stats.Species = append(stats.Species, SpeciesInfo{
			ID:          s.ID,
			Size:        len(s.Members),
			BestFitness: s.BestFitness,
			Age:         p.Generation - s.Created,
			Stagnant:    !surviving[s.ID],
		})
	}
	// Non-total comparator (best-fitness ties possible): stays on
	// sort.Slice so tie order matches the pre-kernel implementation
	// exactly.
	sort.Slice(stats.Species, func(i, j int) bool {
		return stats.Species[i].BestFitness > stats.Species[j].BestFitness
	})

	quotas := p.apportion(survivors)
	next := make([]*gene.Genome, 0, cfg.PopulationSize)

	for si, s := range survivors {
		quota := quotas[si]
		if quota <= 0 {
			continue
		}
		// Sort into the reusable member buffer (s.Members keeps its
		// assignment order — MeanAdjustedFitness and the next epoch
		// depend on it). The buffer is recycled per species: parents
		// aliases it only within this iteration.
		members := append(p.scratch.members[:0], s.Members...)
		p.scratch.members = members
		slices.SortFunc(members, compareMembers)

		// Elites survive unchanged.
		for e := 0; e < cfg.Elitism && e < len(members) && quota > 0; e++ {
			elite := members[e].Clone()
			elite.ID = p.nextGenomeID
			p.nextGenomeID++
			next = append(next, elite)
			quota--
			stats.Elites++
		}

		// Parent pool: the top SurvivalThreshold fraction, at least one.
		cut := int(float64(len(members))*cfg.SurvivalThreshold + 0.5)
		if cut < 1 {
			cut = 1
		}
		parents := members[:cut]

		for ; quota > 0; quota-- {
			child := p.makeChild(parents, stats.ParentUse)
			next = append(next, child)
		}
	}

	// Rounding in apportionment can leave the next generation short or
	// long; trim or top up from the global parent pool.
	for len(next) > cfg.PopulationSize {
		next = next[:len(next)-1]
	}
	if len(next) < cfg.PopulationSize {
		all := p.allParents(survivors)
		for len(next) < cfg.PopulationSize {
			next = append(next, p.makeChild(all, stats.ParentUse))
		}
	}

	// Fig. 4(c) metrics: reuse of the fittest parent and the max-reused
	// parent.
	if b := p.Best(); b != nil {
		stats.FittestParentID = b.ID
		stats.FittestParentReuse = stats.ParentUse[b.ID]
	}
	for _, n := range stats.ParentUse {
		if n > stats.MaxParentReuse {
			stats.MaxParentReuse = n
		}
	}
	stats.Offspring = len(next)

	p.Genomes = next
	p.Generation++
	return stats, nil
}

// compareMembers is the member sort order: fitness descending, genome
// id ascending as the deterministic tiebreak. The comparator is total
// (ids are unique), so the unstable sort has a unique result and the
// slices.SortFunc swap from sort.Slice cannot reorder ties.
func compareMembers(a, b *gene.Genome) int {
	switch {
	case a.Fitness > b.Fitness:
		return -1
	case a.Fitness < b.Fitness:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// cullStagnant removes species stagnant beyond MaxStagnation, always
// preserving at least SpeciesElitism species (the fittest ones).
func (p *Population) cullStagnant() []*Species {
	cfg := &p.Config
	ordered := append(p.scratch.ordered[:0], p.Species...)
	p.scratch.ordered = ordered
	// Non-total comparator (best-fitness ties decide survival rank):
	// stays on sort.Slice for byte-identical tie order.
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].BestFitness > ordered[j].BestFitness })
	out := p.scratch.survivors[:0]
	for rank, s := range ordered {
		if rank < cfg.SpeciesElitism || !s.Stagnant(p.Generation, cfg.MaxStagnation) {
			out = append(out, s)
		}
	}
	p.scratch.survivors = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// apportion distributes PopulationSize offspring across species in
// proportion to their mean (shared) fitness, flooring at MinSpeciesSize.
func (p *Population) apportion(species []*Species) []int {
	cfg := &p.Config
	means := append(p.scratch.means[:0], make([]float64, len(species))...)
	p.scratch.means = means
	minMean := means[0]
	for i, s := range species {
		means[i] = s.MeanAdjustedFitness()
		if i == 0 || means[i] < minMean {
			minMean = means[i]
		}
	}
	// Shift to non-negative and add a floor so zero-fitness species
	// still reproduce.
	var total float64
	for i := range means {
		means[i] = means[i] - minMean + 1e-9
		total += means[i]
	}
	quotas := p.scratch.quotas[:0]
	assigned := 0
	for i := range species {
		q := int(float64(cfg.PopulationSize) * means[i] / total)
		if q < cfg.MinSpeciesSize {
			q = cfg.MinSpeciesSize
		}
		quotas = append(quotas, q)
		assigned += q
	}
	p.scratch.quotas = quotas
	// Normalize to exactly PopulationSize by trimming the largest /
	// growing the smallest quotas.
	for assigned > cfg.PopulationSize {
		maxI := 0
		for i, q := range quotas {
			if q > quotas[maxI] {
				maxI = i
			}
		}
		if quotas[maxI] <= cfg.MinSpeciesSize {
			break
		}
		quotas[maxI]--
		assigned--
	}
	for assigned < cfg.PopulationSize {
		minI := 0
		for i, q := range quotas {
			if q < quotas[minI] {
				minI = i
			}
		}
		quotas[minI]++
		assigned++
	}
	return quotas
}

// allParents concatenates every species' survivor pool into the shared
// parent scratch buffer (valid until the next Epoch).
func (p *Population) allParents(species []*Species) []*gene.Genome {
	out := p.scratch.parents[:0]
	for _, s := range species {
		members := append(p.scratch.members[:0], s.Members...)
		p.scratch.members = members
		// Non-total comparator (fitness ties): stays on sort.Slice for
		// byte-identical tie order with the pre-kernel implementation.
		sort.Slice(members, func(i, j int) bool { return members[i].Fitness > members[j].Fitness })
		cut := int(float64(len(members))*p.Config.SurvivalThreshold + 0.5)
		if cut < 1 {
			cut = 1
		}
		out = append(out, members[:cut]...)
	}
	p.scratch.parents = out
	return out
}

// pickParent selects a parent by tournament: the fittest of
// TournamentSize uniform draws (size ≤ 1 degenerates to uniform).
func (p *Population) pickParent(parents []*gene.Genome) *gene.Genome {
	best := parents[p.rnd.Intn(len(parents))]
	for t := 1; t < p.Config.TournamentSize; t++ {
		c := parents[p.rnd.Intn(len(parents))]
		if c.Fitness > best.Fitness {
			best = c
		}
	}
	return best
}

// makeChild produces one offspring from the parent pool: crossover with
// probability CrossoverRate (fitter parent first), otherwise a clone of
// a single parent; then the mutation pipeline.
func (p *Population) makeChild(parents []*gene.Genome, use map[int64]int) *gene.Genome {
	cfg := &p.Config
	childID := p.nextGenomeID
	p.nextGenomeID++

	p1 := p.pickParent(parents)
	m := mutator{cfg: cfg, rnd: p.rnd, ids: p.ids, scratch: &p.scratch}
	parent2 := int64(-1)

	var child *gene.Genome
	if len(parents) > 1 && p.rnd.Bool(cfg.CrossoverRate) {
		p2 := p.pickParent(parents)
		for p2 == p1 {
			p2 = parents[p.rnd.Intn(len(parents))]
		}
		if p2.Fitness > p1.Fitness {
			p1, p2 = p2, p1
		}
		parent2 = p2.ID
		child = m.crossover(p1, p2, childID)
		use[p2.ID]++
	} else {
		child = p1.Clone()
		child.ID = childID
		child.Fitness = 0
	}
	use[p1.ID]++

	m.mutate(child)
	child.Fitness = 0
	if p.rec != nil && m.ops != [NumOps]int64{} {
		p.rec.Record(Event{
			Generation: p.Generation,
			Child:      childID,
			Parent1:    p1.ID,
			Parent2:    parent2,
			Ops:        m.ops,
		})
	}
	return child
}
