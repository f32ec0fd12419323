package neat

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/gene"
	"repro/internal/rng"
)

func testConfig() Config {
	return DefaultConfig(4, 2)
}

func newMutator(cfg *Config, seed uint64) *mutator {
	return &mutator{
		cfg: cfg,
		rnd: rng.New(seed),
		ids: newIDAssigner(cfg),
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := testConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.PopulationSize = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero population")
	}
	bad.PopulationSize = MaxPopulationSize
	if err := bad.Validate(); err != nil {
		t.Fatalf("rejected the bound: %v", err)
	}
	bad.PopulationSize = MaxPopulationSize + 1
	if bad.Validate() == nil {
		t.Fatal("accepted a population above the bound")
	}
	bad = cfg
	bad.NumInputs = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero inputs")
	}
	bad = cfg
	bad.InitialConnection = "sparse"
	if bad.Validate() == nil {
		t.Fatal("accepted unknown initial connection")
	}
	bad = cfg
	bad.SurvivalThreshold = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero survival threshold")
	}
}

func TestSeedGenomeTopology(t *testing.T) {
	cfg := testConfig()
	p, err := NewPopulation(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Genomes) != cfg.PopulationSize {
		t.Fatalf("population size %d", len(p.Genomes))
	}
	g := p.Genomes[0]
	if len(g.Nodes) != cfg.NumInputs+cfg.NumOutputs {
		t.Fatalf("seed genome has %d nodes", len(g.Nodes))
	}
	if len(g.Conns) != cfg.NumInputs*cfg.NumOutputs {
		t.Fatalf("seed genome has %d conns", len(g.Conns))
	}
	for _, c := range g.Conns {
		if c.Weight != 0 {
			t.Fatalf("seed weights must start at zero, got %v", c.Weight)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSeedGenomeNoneConnection(t *testing.T) {
	cfg := testConfig()
	cfg.InitialConnection = "none"
	p, err := NewPopulation(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Genomes[0].Conns) != 0 {
		t.Fatal("'none' initial connection produced connections")
	}
}

// referenceSeedGenome is the seed genome as built before NewPopulation
// appended genes in order: one PutNode or PutConn per gene.
func referenceSeedGenome(cfg *Config, id int64) *gene.Genome {
	g := gene.NewGenome(id)
	for _, in := range cfg.InputIDs() {
		g.PutNode(gene.NewNode(in, gene.Input))
	}
	for _, out := range cfg.OutputIDs() {
		g.PutNode(gene.NewNode(out, gene.Output))
	}
	if cfg.InitialConnection == "full" {
		for _, in := range cfg.InputIDs() {
			for _, out := range cfg.OutputIDs() {
				g.PutConn(gene.NewConn(in, out, 0))
			}
		}
	}
	return g
}

func TestSeedGenomesMatchReference(t *testing.T) {
	for _, conn := range []string{"full", "none"} {
		cfg := DefaultConfig(128, 18)
		cfg.PopulationSize = 5
		cfg.InitialConnection = conn
		p, err := NewPopulation(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range p.Genomes {
			got, err := g.AppendRecord(nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceSeedGenome(&cfg, int64(i)).AppendRecord(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: genome %d is\n%v\nthe reference\n%v", conn, i, g, referenceSeedGenome(&cfg, int64(i)))
			}
		}
	}
}

func TestAddNodeSplitsConnection(t *testing.T) {
	cfg := testConfig()
	m := newMutator(&cfg, 7)
	g := gene.NewGenome(0)
	g.PutNode(gene.NewNode(0, gene.Input))
	g.PutNode(gene.NewNode(1, gene.Output))
	g.PutConn(gene.NewConn(0, 1, 0.75))

	m.addNode(g)

	if len(g.Nodes) != 3 {
		t.Fatalf("expected 3 nodes after split, got %d", len(g.Nodes))
	}
	old, _ := g.Conn(0, 1)
	if old.Enabled {
		t.Fatal("split connection not disabled")
	}
	newID := g.HiddenIDs()[0]
	in, ok1 := g.Conn(0, newID)
	out, ok2 := g.Conn(newID, 1)
	if !ok1 || !ok2 {
		t.Fatal("split connections missing")
	}
	if in.Weight != 1.0 {
		t.Fatalf("incoming split weight = %v, want 1", in.Weight)
	}
	if math.Abs(out.Weight-0.75) > 1e-9 {
		t.Fatalf("outgoing split weight = %v, want 0.75", out.Weight)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddConnNoDuplicatesNoCycles(t *testing.T) {
	cfg := testConfig()
	m := newMutator(&cfg, 11)
	g := gene.NewGenome(0)
	g.PutNode(gene.NewNode(0, gene.Input))
	g.PutNode(gene.NewNode(1, gene.Output))
	g.PutNode(gene.NewNode(2, gene.Hidden))
	g.PutNode(gene.NewNode(3, gene.Hidden))
	g.PutConn(gene.NewConn(2, 3, 1)) // 2 -> 3 exists; 3 -> 2 would cycle

	for i := 0; i < 200; i++ {
		m.addConn(g)
	}
	seen := map[[2]int32]bool{}
	for _, c := range g.Conns {
		k := [2]int32{c.Src, c.Dst}
		if seen[k] {
			t.Fatalf("duplicate connection %v", k)
		}
		seen[k] = true
	}
	if g.HasConn(3, 2) {
		t.Fatal("cycle 3->2 created despite 2->3")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCreatesCycle(t *testing.T) {
	g := gene.NewGenome(0)
	for i := int32(0); i < 4; i++ {
		g.PutNode(gene.NewNode(i, gene.Hidden))
	}
	g.PutConn(gene.NewConn(0, 1, 1))
	g.PutConn(gene.NewConn(1, 2, 1))
	if !createsCycle(g, 2, 0) {
		t.Fatal("2->0 closes 0->1->2 but was not detected")
	}
	if createsCycle(g, 0, 3) {
		t.Fatal("0->3 reported as cycle")
	}
	if !createsCycle(g, 1, 1) {
		t.Fatal("self loop not detected")
	}
}

func TestDeleteNodeMutationKeepsValid(t *testing.T) {
	cfg := testConfig()
	cfg.DeleteNodeProb = 1.0
	cfg.DeleteConnProb = 0
	m := newMutator(&cfg, 3)
	g := gene.NewGenome(0)
	g.PutNode(gene.NewNode(0, gene.Input))
	g.PutNode(gene.NewNode(1, gene.Output))
	g.PutNode(gene.NewNode(2, gene.Hidden))
	g.PutConn(gene.NewConn(0, 2, 1))
	g.PutConn(gene.NewConn(2, 1, 1))
	g.PutConn(gene.NewConn(0, 1, 1))

	m.deleteGenes(g)
	if g.HasNode(2) {
		t.Fatal("hidden node not deleted with prob 1")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Inputs and outputs must never be deleted.
	if !g.HasNode(0) || !g.HasNode(1) {
		t.Fatal("io node deleted")
	}
}

func TestPerturbRespectsAttrLimit(t *testing.T) {
	cfg := testConfig()
	cfg.WeightMutateRate = 1
	cfg.WeightPerturbPower = 10 // violent
	cfg.BiasMutateRate = 1
	cfg.BiasPerturbPower = 10
	m := newMutator(&cfg, 5)
	g := gene.NewGenome(0)
	g.PutNode(gene.NewNode(0, gene.Input))
	g.PutNode(gene.NewNode(1, gene.Output))
	g.PutConn(gene.NewConn(0, 1, 0))
	for i := 0; i < 100; i++ {
		m.perturb(g)
		c, _ := g.Conn(0, 1)
		if c.Weight >= gene.AttrLimit || c.Weight < -gene.AttrLimit {
			t.Fatalf("weight escaped hardware range: %v", c.Weight)
		}
		n, _ := g.Node(1)
		if n.Bias >= gene.AttrLimit || n.Bias < -gene.AttrLimit {
			t.Fatalf("bias escaped hardware range: %v", n.Bias)
		}
	}
}

func TestInputNodesNeverPerturbed(t *testing.T) {
	cfg := testConfig()
	cfg.BiasMutateRate = 1
	cfg.ResponseMutateRate = 1
	cfg.ActivationMutateRate = 1
	m := newMutator(&cfg, 9)
	g := gene.NewGenome(0)
	g.PutNode(gene.NewNode(0, gene.Input))
	g.PutNode(gene.NewNode(1, gene.Output))
	for i := 0; i < 20; i++ {
		m.perturb(g)
	}
	in, _ := g.Node(0)
	if in.Bias != 0 || in.Response != 1 || in.Activation != gene.ActSigmoid {
		t.Fatalf("input node attributes mutated: %v", in)
	}
}

func TestCrossoverTopologyFromFitterParent(t *testing.T) {
	cfg := testConfig()
	m := newMutator(&cfg, 13)

	p1 := gene.NewGenome(1)
	p1.Fitness = 10
	p1.PutNode(gene.NewNode(0, gene.Input))
	p1.PutNode(gene.NewNode(1, gene.Output))
	p1.PutNode(gene.NewNode(6, gene.Hidden)) // disjoint in p1
	p1.PutConn(gene.NewConn(0, 1, 0.5))
	p1.PutConn(gene.NewConn(0, 6, 0.1))
	p1.PutConn(gene.NewConn(6, 1, 0.2))

	p2 := gene.NewGenome(2)
	p2.Fitness = 5
	p2.PutNode(gene.NewNode(0, gene.Input))
	p2.PutNode(gene.NewNode(1, gene.Output))
	p2.PutNode(gene.NewNode(9, gene.Hidden)) // disjoint in p2, must not appear
	p2.PutConn(gene.NewConn(0, 1, -0.5))
	p2.PutConn(gene.NewConn(0, 9, 0.3))

	child := m.crossover(p1, p2, 3)
	if child.NumGenes() != p1.NumGenes() {
		t.Fatalf("child topology differs from fitter parent: %d vs %d genes",
			child.NumGenes(), p1.NumGenes())
	}
	if child.HasNode(9) || child.HasConn(0, 9) {
		t.Fatal("child inherited disjoint genes from less-fit parent")
	}
	if err := child.Validate(); err != nil {
		t.Fatal(err)
	}
	// The matched connection's weight must come from one of the parents.
	c, _ := child.Conn(0, 1)
	if c.Weight != 0.5 && c.Weight != -0.5 {
		t.Fatalf("matched gene weight %v from neither parent", c.Weight)
	}
}

func TestCrossoverMixesAttributes(t *testing.T) {
	cfg := testConfig()
	m := newMutator(&cfg, 17)
	p1 := gene.NewGenome(1)
	p1.PutNode(gene.NewNode(0, gene.Input))
	p1.PutNode(gene.NewNode(1, gene.Output))
	p1.PutConn(gene.NewConn(0, 1, 1.0))
	p2 := p1.Clone()
	p2.ID = 2
	c, _ := p2.Conn(0, 1)
	c.Weight = -1.0
	p2.PutConn(c)

	fromP2 := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		child := m.crossover(p1, p2, int64(10+i))
		w, _ := child.Conn(0, 1)
		if w.Weight == -1.0 {
			fromP2++
		}
	}
	// With bias 0.5 expect roughly half from each parent.
	if fromP2 < trials/4 || fromP2 > 3*trials/4 {
		t.Fatalf("attribute mixing skewed: %d/%d from parent 2", fromP2, trials)
	}
}

func TestCompatDistanceProperties(t *testing.T) {
	cfg := testConfig()
	g := gene.NewGenome(1)
	g.PutNode(gene.NewNode(0, gene.Input))
	g.PutNode(gene.NewNode(1, gene.Output))
	g.PutConn(gene.NewConn(0, 1, 0.5))

	if d := CompatDistance(g, g, &cfg); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	h := g.Clone()
	c, _ := h.Conn(0, 1)
	c.Weight = 1.5
	h.PutConn(c)
	d1 := CompatDistance(g, h, &cfg)
	if d1 <= 0 {
		t.Fatalf("weight difference gave distance %v", d1)
	}
	if d2 := CompatDistance(h, g, &cfg); math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("distance asymmetric: %v vs %v", d1, d2)
	}
	// Structural difference should dominate small weight noise.
	k := g.Clone()
	k.PutNode(gene.NewNode(7, gene.Hidden))
	k.PutConn(gene.NewConn(0, 7, 1))
	k.PutConn(gene.NewConn(7, 1, 1))
	if ds := CompatDistance(g, k, &cfg); ds <= d1 {
		t.Fatalf("structural distance %v not above weight distance %v", ds, d1)
	}
}

func TestSpeciateGroupsIdenticalGenomes(t *testing.T) {
	cfg := testConfig()
	p, _ := NewPopulation(cfg, 3)
	next := 0
	species := speciate(p.Genomes, nil, &cfg, 0, &next)
	if len(species) != 1 {
		t.Fatalf("identical seed genomes split into %d species", len(species))
	}
	if len(species[0].Members) != cfg.PopulationSize {
		t.Fatalf("species holds %d members", len(species[0].Members))
	}
}

func TestSpeciateSeparatesDistantGenomes(t *testing.T) {
	cfg := testConfig()
	cfg.CompatThreshold = 0.5
	a := gene.NewGenome(1)
	a.PutNode(gene.NewNode(0, gene.Input))
	a.PutNode(gene.NewNode(1, gene.Output))
	a.PutConn(gene.NewConn(0, 1, 0))
	b := a.Clone()
	b.ID = 2
	for i := int32(10); i < 20; i++ {
		b.PutNode(gene.NewNode(i, gene.Hidden))
		b.PutConn(gene.NewConn(0, i, 1))
		b.PutConn(gene.NewConn(i, 1, 1))
	}
	next := 0
	species := speciate([]*gene.Genome{a, b}, nil, &cfg, 0, &next)
	if len(species) != 2 {
		t.Fatalf("distant genomes grouped into %d species", len(species))
	}
}

func TestStagnation(t *testing.T) {
	s := &Species{LastImproved: 5}
	if s.Stagnant(10, 15) {
		t.Fatal("species stagnant too early")
	}
	if !s.Stagnant(21, 15) {
		t.Fatal("species not stagnant after threshold")
	}
}

func TestEpochProducesFullValidGeneration(t *testing.T) {
	cfg := testConfig()
	p, err := NewPopulation(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.New(99)
	for gen := 0; gen < 5; gen++ {
		for _, g := range p.Genomes {
			g.Fitness = rnd.Float64()
		}
		stats, err := p.Epoch()
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if len(p.Genomes) != cfg.PopulationSize {
			t.Fatalf("gen %d: population %d", gen, len(p.Genomes))
		}
		if stats.Offspring != cfg.PopulationSize {
			t.Fatalf("gen %d: offspring %d", gen, stats.Offspring)
		}
		ids := map[int64]bool{}
		for _, g := range p.Genomes {
			if err := g.Validate(); err != nil {
				t.Fatalf("gen %d: %v", gen, err)
			}
			if ids[g.ID] {
				t.Fatalf("gen %d: duplicate genome id %d", gen, g.ID)
			}
			ids[g.ID] = true
		}
	}
	if p.Generation != 5 {
		t.Fatalf("generation counter = %d", p.Generation)
	}
}

func TestEpochElitismPreservesBest(t *testing.T) {
	cfg := testConfig()
	p, _ := NewPopulation(cfg, 7)
	for i, g := range p.Genomes {
		g.Fitness = float64(i)
	}
	best := p.Best()
	bestGenes := best.NumGenes()
	if _, err := p.Epoch(); err != nil {
		t.Fatal(err)
	}
	// An elite clone with identical structure must exist in the next
	// generation (weights identical too since elites skip mutation).
	found := false
	for _, g := range p.Genomes {
		if g.NumGenes() == bestGenes && CompatDistance(g, best, &cfg) == 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no verbatim elite copy of the best genome survived")
	}
	if p.BestEver == nil || p.BestEver.Fitness != best.Fitness {
		t.Fatalf("BestEver not tracked: %v", p.BestEver)
	}
}

func TestEpochRecordsOps(t *testing.T) {
	cfg := testConfig()
	p, _ := NewPopulation(cfg, 9)
	var counts OpCounts
	p.SetRecorder(&counts)
	for _, g := range p.Genomes {
		g.Fitness = 1
	}
	if _, err := p.Epoch(); err != nil {
		t.Fatal(err)
	}
	if counts.Crossovers() == 0 {
		t.Fatal("no crossover ops recorded")
	}
	if counts.Mutations() == 0 {
		t.Fatal("no mutation ops recorded")
	}
	// Crossover ops are per-gene: must be on the order of genes per
	// genome times crossover children.
	if counts.Crossovers() < int64(cfg.NumInputs*cfg.NumOutputs) {
		t.Fatalf("implausibly few crossover ops: %d", counts.Crossovers())
	}
}

// childLog is a recorder that keeps every event.
type childLog struct{ events []Event }

func (l *childLog) Record(e Event) { l.events = append(l.events, e) }

// TestRecordOncePerChangedChild pins the Recorder contract over several
// epochs: one event per child that underwent a gene-level op, none for
// an elite or an unmutated clone — the children still carrying a
// parent's version stamp — and event totals equal to OpCounts'.
func TestRecordOncePerChangedChild(t *testing.T) {
	cfg := testConfig()
	cfg.PopulationSize = 60
	// Rates low enough that some mutation-only children see no op.
	cfg.CrossoverRate = 0.5
	cfg.WeightMutateRate, cfg.EnableMutateRate = 0.02, 0
	cfg.BiasMutateRate, cfg.ResponseMutateRate = 0.02, 0
	cfg.ActivationMutateRate, cfg.AggregationMutateRate = 0, 0
	cfg.AddNodeProb, cfg.AddConnProb = 0.1, 0.1
	cfg.DeleteNodeProb, cfg.DeleteConnProb = 0.1, 0.1
	p, err := NewPopulation(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	var log childLog
	var counts OpCounts
	p.SetRecorder(MultiRecorder(&log, &counts))
	var sum [NumOps]int64
	opless := 0
	for gen := 0; gen < 6; gen++ {
		parentStamps := map[int64]bool{}
		for j, g := range p.Genomes {
			g.Fitness = float64((gen*5 + j) % 11)
			parentStamps[g.Version()] = true
		}
		log.events = log.events[:0]
		stats, err := p.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		recorded := map[int64]bool{}
		for _, e := range log.events {
			if e.Generation != gen || recorded[e.Child] || e.Ops == [NumOps]int64{} {
				t.Fatalf("generation %d: bad event %+v (repeat: %v)", gen, e, recorded[e.Child])
			}
			recorded[e.Child] = true
			for op, n := range e.Ops {
				sum[op] += n
			}
		}
		unchanged := 0
		for _, g := range p.Genomes {
			switch {
			case parentStamps[g.Version()] && recorded[g.ID]:
				t.Fatalf("generation %d: unchanged child %d recorded", gen, g.ID)
			case parentStamps[g.Version()]:
				unchanged++
			case !recorded[g.ID]:
				t.Fatalf("generation %d: changed child %d not recorded", gen, g.ID)
			}
		}
		if unchanged < stats.Elites || len(recorded) != len(p.Genomes)-unchanged {
			t.Fatalf("generation %d: %d events, %d unchanged children, %d elites, %d children",
				gen, len(recorded), unchanged, stats.Elites, len(p.Genomes))
		}
		opless += unchanged - stats.Elites
	}
	if opless == 0 {
		t.Fatal("no op-less non-elite child: the test does not reach that path")
	}
	if sum != counts.ByOp {
		t.Fatalf("event totals %v, OpCounts %v", sum, counts.ByOp)
	}
}

func TestEpochParentReuse(t *testing.T) {
	cfg := testConfig()
	p, _ := NewPopulation(cfg, 11)
	for _, g := range p.Genomes {
		g.Fitness = 1
	}
	// Make one genome dominant so it lands in every parent pool.
	p.Genomes[0].Fitness = 100
	stats, err := p.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FittestParentReuse == 0 {
		t.Fatal("dominant parent never reused")
	}
	if stats.MaxParentReuse < stats.FittestParentReuse {
		t.Fatal("max reuse below fittest reuse")
	}
	total := 0
	for _, n := range stats.ParentUse {
		total += n
	}
	if total == 0 {
		t.Fatal("no parent usage recorded")
	}
}

func TestEpochDeterminism(t *testing.T) {
	run := func() []int {
		cfg := testConfig()
		p, _ := NewPopulation(cfg, 42)
		sizes := []int{}
		for gen := 0; gen < 3; gen++ {
			for i, g := range p.Genomes {
				g.Fitness = float64(i % 7)
			}
			if _, err := p.Epoch(); err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, p.TotalGenes())
		}
		return sizes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic evolution: %v vs %v", a, b)
		}
	}
}

func TestGenesGrowOverGenerations(t *testing.T) {
	cfg := testConfig()
	cfg.AddNodeProb = 0.3
	cfg.AddConnProb = 0.5
	cfg.DeleteNodeProb = 0
	cfg.DeleteConnProb = 0
	p, _ := NewPopulation(cfg, 21)
	start := p.TotalGenes()
	for gen := 0; gen < 10; gen++ {
		for i, g := range p.Genomes {
			g.Fitness = float64(i)
		}
		if _, err := p.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	if p.TotalGenes() <= start {
		t.Fatalf("population did not complexify: %d -> %d genes", start, p.TotalGenes())
	}
}

// TestZeroStructuralProbabilitiesKeepSeedTopology is the converse of
// TestGenesGrowOverGenerations: with the add-node and add-connection
// probabilities at zero, no genome grows past the seed topology.
func TestZeroStructuralProbabilitiesKeepSeedTopology(t *testing.T) {
	cfg := testConfig()
	cfg.PopulationSize = 20
	cfg.AddNodeProb = 0
	cfg.AddConnProb = 0
	p, _ := NewPopulation(cfg, 1)
	seed := p.Genomes[0].NumGenes() // 4 inputs + 2 outputs + 8 conns
	r := rng.New(1)
	for gen := 0; gen < 5; gen++ {
		for _, g := range p.Genomes {
			g.Fitness = r.Float64()
		}
		if _, err := p.Epoch(); err != nil {
			t.Fatal(err)
		}
		for _, g := range p.Genomes {
			if g.NumGenes() > seed {
				t.Fatalf("generation %d: genome %d has %d genes, seed topology has %d",
					gen, g.ID, g.NumGenes(), seed)
			}
		}
	}
}

func TestIDAssignerSplitReuse(t *testing.T) {
	cfg := testConfig()
	a := newIDAssigner(&cfg)
	g1 := gene.NewGenome(1)
	g2 := gene.NewGenome(2)
	id1 := a.nodeIDForSplit(g1, 0, 5)
	id2 := a.nodeIDForSplit(g2, 0, 5)
	if id1 != id2 {
		t.Fatalf("same split got different ids: %d vs %d", id1, id2)
	}
	id3 := a.nodeIDForSplit(g1, 1, 5)
	if id3 == id1 {
		t.Fatal("different split reused id")
	}
	a.newGeneration()
	id4 := a.nodeIDForSplit(g1, 0, 5)
	if id4 == id1 {
		t.Fatal("split reuse table not cleared across generations")
	}
}

func TestIDAssignerLocalMode(t *testing.T) {
	cfg := testConfig()
	cfg.LocalNodeIDs = true
	a := newIDAssigner(&cfg)
	g := gene.NewGenome(1)
	g.PutNode(gene.NewNode(9, gene.Hidden))
	if id := a.nodeIDForSplit(g, 0, 1); id != 10 {
		t.Fatalf("local mode id = %d, want maxID+1 = 10", id)
	}
}

func TestOpCounts(t *testing.T) {
	var c OpCounts
	c.Record(Event{Ops: [NumOps]int64{OpCrossover: 1, OpPerturb: 1}})
	c.Record(Event{Ops: [NumOps]int64{OpAddNode: 1, OpDeleteConn: 1}})
	if c.Crossovers() != 1 || c.Mutations() != 3 || c.Total() != 4 {
		t.Fatalf("counts wrong: %+v", c)
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("reset failed")
	}
}

func TestMultiRecorder(t *testing.T) {
	var a, b OpCounts
	r := MultiRecorder(&a, nil, &b)
	r.Record(Event{Ops: [NumOps]int64{OpPerturb: 1}})
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatal("fan-out failed")
	}
	if MultiRecorder(nil, nil) != nil {
		t.Fatal("all-nil should collapse to nil")
	}
	if MultiRecorder(&a) != Recorder(&a) {
		t.Fatal("single recorder should be returned unwrapped")
	}
}

func TestTournamentSelectionConcentratesReuse(t *testing.T) {
	run := func(tournament int) int {
		cfg := testConfig()
		cfg.TournamentSize = tournament
		p, _ := NewPopulation(cfg, 31)
		for i, g := range p.Genomes {
			g.Fitness = float64(i)
		}
		stats, err := p.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		return stats.MaxParentReuse
	}
	uniform := run(1)
	biased := run(3)
	if biased <= uniform {
		t.Fatalf("tournament selection did not concentrate reuse: %d vs %d",
			biased, uniform)
	}
	// The paper's Fig. 4c regime: the hottest parent serves a double-
	// digit share of the 150 children.
	if biased < 15 {
		t.Fatalf("max reuse %d too low for tournament-3", biased)
	}
}

func TestOpStrings(t *testing.T) {
	for op := Op(0); op < Op(NumOps); op++ {
		if op.String() == "op?" {
			t.Fatalf("op %d has no name", op)
		}
	}
	if OpCrossover.IsMutation() {
		t.Fatal("crossover classified as mutation")
	}
	if !OpAddNode.IsMutation() {
		t.Fatal("add-node not classified as mutation")
	}
}
