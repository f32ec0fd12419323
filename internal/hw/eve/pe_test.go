package eve

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/env"
	"repro/internal/gene"
	"repro/internal/network"
	"repro/internal/rng"
)

// parentPair builds two homologous parents with distinct attributes.
func parentPair() (*gene.Genome, *gene.Genome) {
	p1 := gene.NewGenome(1)
	p1.Fitness = 2
	p1.PutNode(gene.NewNode(0, gene.Input))
	p1.PutNode(gene.NewNode(1, gene.Input))
	out := gene.NewNode(2, gene.Output)
	out.Bias = 1
	p1.PutNode(out)
	hid := gene.NewNode(5, gene.Hidden)
	hid.Bias = 0.5
	p1.PutNode(hid)
	p1.PutConn(gene.NewConn(0, 5, 1.0))
	p1.PutConn(gene.NewConn(1, 5, 1.0))
	p1.PutConn(gene.NewConn(5, 2, 1.0))
	p1.PutConn(gene.NewConn(0, 2, 1.0))

	p2 := p1.Clone()
	p2.ID = 2
	p2.Fitness = 1
	for i := range p2.Conns {
		p2.Conns[i].Weight = -1.0
	}
	n, _ := p2.Node(2)
	n.Bias = -1
	p2.PutNode(n)
	return p1, p2
}

// passthroughCfg disables all stochastic stages.
func passthroughCfg() PEConfig {
	return PEConfig{CrossoverBias: 1.0, MaxDeletedNodes: 1}
}

func TestPassthroughChildEqualsParent1(t *testing.T) {
	p1, p2 := parentPair()
	child, st := RunChild(p1, p2, 9, passthroughCfg(), rng.New(1))
	if child.NumGenes() != p1.NumGenes() {
		t.Fatalf("child %d genes, parent %d", child.NumGenes(), p1.NumGenes())
	}
	if err := child.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, c := range child.Conns {
		if c.Weight != p1.Conns[i].Weight {
			t.Fatalf("weight changed in passthrough: %v", c)
		}
	}
	if st.CyclesStreamed != p1.NumGenes() {
		t.Fatalf("streamed %d cycles for %d genes", st.CyclesStreamed, p1.NumGenes())
	}
	if st.Crossovers != p1.NumGenes() {
		t.Fatalf("crossovers %d", st.Crossovers)
	}
}

func TestCrossoverBiasZeroTakesParent2(t *testing.T) {
	p1, p2 := parentPair()
	cfg := passthroughCfg()
	cfg.CrossoverBias = 0 // every attribute from parent 2
	child, _ := RunChild(p1, p2, 9, cfg, rng.New(1))
	for _, c := range child.Conns {
		if c.Weight != -1.0 {
			t.Fatalf("attribute not from parent 2: %v", c)
		}
	}
	n, _ := child.Node(2)
	if n.Bias != -1 {
		t.Fatalf("node bias not from parent 2: %v", n)
	}
}

func TestCrossoverMixingRate(t *testing.T) {
	p1, p2 := parentPair()
	cfg := passthroughCfg()
	cfg.CrossoverBias = 0.5
	prng := rng.New(7)
	fromP2 := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		child, _ := RunChild(p1, p2, int64(i), cfg, prng)
		c, _ := child.Conn(0, 2)
		if c.Weight == -1.0 {
			fromP2++
		}
	}
	frac := float64(fromP2) / trials
	if math.Abs(frac-0.5) > 0.1 {
		t.Fatalf("bias-0.5 mixing skewed: %.2f from parent 2", frac)
	}
}

func TestPerturbationQuantizedAndBounded(t *testing.T) {
	p1, _ := parentPair()
	cfg := passthroughCfg()
	cfg.PerturbProb = 1
	cfg.PerturbScale = 4
	prng := rng.New(3)
	for i := 0; i < 50; i++ {
		child, st := RunChild(p1, nil, int64(i), cfg, prng)
		if st.Perturbs == 0 {
			t.Fatal("no perturbations at prob 1")
		}
		for _, c := range child.Conns {
			if c.Weight >= gene.AttrLimit || c.Weight < -gene.AttrLimit {
				t.Fatalf("weight out of hardware range: %v", c.Weight)
			}
			if gene.Quantize(c.Weight) != c.Weight {
				t.Fatalf("weight not quantized: %v", c.Weight)
			}
		}
		p1 = child
	}
}

func TestDeleteNodeThreshold(t *testing.T) {
	p1, _ := parentPair()
	cfg := passthroughCfg()
	cfg.DeleteProb = 1
	cfg.MaxDeletedNodes = 1
	// DeleteProb 1 also deletes every connection; expect a heavily
	// pruned but structurally valid child with at most 1 node deleted.
	child, st := RunChild(p1, nil, 9, cfg, rng.New(5))
	if st.DeletedNodes > 1 {
		t.Fatalf("threshold breached: %d nodes deleted", st.DeletedNodes)
	}
	if err := child.Validate(); err != nil {
		t.Fatal(err)
	}
	// IO nodes always survive.
	if !child.HasNode(0) || !child.HasNode(1) || !child.HasNode(2) {
		t.Fatal("io node deleted")
	}
}

func TestAddNodeDropsIncomingConn(t *testing.T) {
	p1, _ := parentPair()
	cfg := passthroughCfg()
	cfg.AddNodeProb = 1 // split on the first connection drawn
	child, st := RunChild(p1, nil, 9, cfg, rng.New(9))
	if st.AddedNodes == 0 {
		t.Fatal("no node added at prob 1")
	}
	if st.AddedConns < 2*st.AddedNodes {
		t.Fatalf("added %d nodes but only %d conns", st.AddedNodes, st.AddedConns)
	}
	if err := child.Validate(); err != nil {
		t.Fatal(err)
	}
	// Hardware semantics: the split connection is dropped, not
	// disabled, so every connection in the child is enabled.
	for _, c := range child.Conns {
		if !c.Enabled {
			t.Fatalf("disabled connection survived a drop-splitting PE: %v", c)
		}
	}
	// New node ids come from the max-id register.
	if child.MaxNodeIDIn() <= p1.MaxNodeIDIn() {
		t.Fatal("no fresh node id assigned")
	}
}

func TestAddConnTwoCycleProducesValidEdges(t *testing.T) {
	p1, _ := parentPair()
	cfg := passthroughCfg()
	cfg.AddConnProb = 1
	child, st := RunChild(p1, nil, 9, cfg, rng.New(11))
	if st.AddedConns == 0 {
		t.Fatal("no connection added at prob 1")
	}
	if err := child.Validate(); err != nil {
		t.Fatalf("two-cycle addition produced invalid genome: %v", err)
	}
}

func TestMutationOnlyChildWithoutParent2(t *testing.T) {
	p1, _ := parentPair()
	child, st := RunChild(p1, nil, 9, passthroughCfg(), rng.New(2))
	if st.Crossovers != 0 {
		t.Fatalf("crossovers counted without a second parent: %d", st.Crossovers)
	}
	if child.NumGenes() != p1.NumGenes() {
		t.Fatal("clone-path child differs structurally")
	}
}

// Property: arbitrary seeds and default probabilities always yield a
// structurally valid child (sorted clusters, no dangling connections,
// no connections into inputs).
func TestQuickPEAlwaysValid(t *testing.T) {
	p1, p2 := parentPair()
	f := func(seed uint64) bool {
		cfg := DefaultPEConfig()
		cfg.AddNodeProb = 0.1
		cfg.AddConnProb = 0.2
		cfg.DeleteProb = 0.05
		child, _ := RunChild(p1, p2, 9, cfg, rng.New(seed))
		return child.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHardwareReproducerGeneration(t *testing.T) {
	p1, p2 := parentPair()
	pop := []*gene.Genome{p1, p2}
	h := NewHardwareReproducer(13)
	next := h.NextGeneration(pop, 20)
	if len(next) != 20 {
		t.Fatalf("produced %d children", len(next))
	}
	ids := map[int64]bool{}
	for _, g := range next {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if ids[g.ID] {
			t.Fatalf("duplicate child id %d", g.ID)
		}
		ids[g.ID] = true
	}
	if h.Stats.CyclesStreamed == 0 {
		t.Fatal("no PE activity recorded")
	}
}

// TestHardwareReproducerDigest pins the exact children the functional
// PE builds, where the tests above check only properties: 30
// generations of a pop-24, 8-in/3-out population with the structural
// probabilities raised, hashed over every child's binary record.
func TestHardwareReproducerDigest(t *testing.T) {
	const popSize, ins, outs = 24, 8, 3
	r := rng.New(5)
	pop := make([]*gene.Genome, popSize)
	for i := range pop {
		g := gene.NewGenome(int64(i))
		for id := int32(0); id < ins+outs; id++ {
			typ := gene.Input
			if id >= ins {
				typ = gene.Output
			}
			g.PutNode(gene.NewNode(id, typ))
		}
		for src := int32(0); src < ins; src++ {
			for dst := int32(ins); dst < ins+outs; dst++ {
				g.PutConn(gene.NewConn(src, dst, gene.Quantize(r.NormFloat64())))
			}
		}
		pop[i] = g
	}
	h := NewHardwareReproducer(17)
	h.PE.AddNodeProb, h.PE.AddConnProb, h.PE.DeleteProb = 0.05, 0.05, 0.02
	sum := sha256.New()
	var rec []byte
	for gen := 0; gen < 30; gen++ {
		// A deterministic stand-in for evaluation: the enabled weights'
		// sum.
		for _, g := range pop {
			g.Fitness = 0
			for _, c := range g.Conns {
				if c.Enabled {
					g.Fitness += c.Weight
				}
			}
		}
		pop = h.NextGeneration(pop, popSize)
		for _, g := range pop {
			var err error
			if rec, err = g.AppendRecord(rec[:0]); err != nil {
				t.Fatal(err)
			}
			sum.Write(rec)
		}
	}
	const want = "dc207f244ffb529e5ff6c0d926ffd40cb30e2362ac841c66c5dc3d5b9cf9d5e3"
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Fatalf("children digest %s, want %s", got, want)
	}
}

func TestHardwareReproducerEmpty(t *testing.T) {
	h := NewHardwareReproducer(1)
	if h.NextGeneration(nil, 10) != nil {
		t.Fatal("empty population reproduced")
	}
}

// TestHardwareEvolutionLearnsCartPole is the integration claim of the
// paper: the functional hardware datapath — quantized genes, 8-bit
// randoms, PE pipeline — can evolve a working controller end to end.
func TestHardwareEvolutionLearnsCartPole(t *testing.T) {
	e, err := env.New("cartpole")
	if err != nil {
		t.Fatal(err)
	}
	// Seed population: minimal topology at quantized precision.
	const popSize = 64
	pop := make([]*gene.Genome, popSize)
	for i := range pop {
		g := gene.NewGenome(int64(i))
		for in := int32(0); in < 4; in++ {
			g.PutNode(gene.NewNode(in, gene.Input))
		}
		g.PutNode(gene.NewNode(4, gene.Output))
		for in := int32(0); in < 4; in++ {
			g.PutConn(gene.NewConn(in, 4, 0))
		}
		pop[i] = g
	}
	evaluate := func(g *gene.Genome) float64 {
		n, err := network.New(g)
		if err != nil {
			// Hardware has no cycle checker; a cyclic child just
			// scores zero (the environment run would fail).
			return 0
		}
		obs := e.Reset(99)
		total := 0.0
		for {
			a, err := n.Feed(obs)
			if err != nil {
				return 0
			}
			var r float64
			var done bool
			obs, r, done = e.Step(a)
			total += r
			if done {
				return total
			}
		}
	}

	h := NewHardwareReproducer(21)
	h.PE.PerturbProb = 0.25
	h.PE.PerturbScale = 1.0
	first, best := 0.0, 0.0
	for gen := 0; gen < 30; gen++ {
		genBest := 0.0
		for _, g := range pop {
			g.Fitness = evaluate(g)
			if g.Fitness > genBest {
				genBest = g.Fitness
			}
		}
		if gen == 0 {
			first = genBest
		}
		if genBest > best {
			best = genBest
		}
		if best >= 195 {
			break
		}
		pop = h.NextGeneration(pop, popSize)
	}
	if best <= first {
		t.Fatalf("hardware evolution made no progress: gen0 %v, best %v", first, best)
	}
	t.Logf("hardware-datapath cartpole: gen0=%v best=%v", first, best)
}
