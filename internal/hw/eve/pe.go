package eve

import (
	"repro/internal/gene"
	"repro/internal/rng"
)

// This file is the functional model of the EvE datapath: where eve.go
// accounts cycles and energy, the types here actually execute
// reproduction the way the silicon does — streaming packed 64-bit gene
// words through the four pipeline stages of Fig. 7, driven by 8-bit
// XOR-WOW draws — so that "evolving the topology and weights of neural
// networks completely in hardware" is demonstrated, not just priced.
//
// Hardware semantics differ from software NEAT in documented ways:
//
//   - attributes are quantized to the 64-bit gene word (Fig. 6);
//   - perturbation deltas come from an 8-bit random scaled into the
//     attribute range ("Limit & Quantize", Fig. 7);
//   - add-node drops the split connection ("the incoming connection
//     gene is dropped") where software NEAT disables it;
//   - new node ids are assigned genome-locally (max id + 1), the Add
//     Gene engine rule;
//   - no cycle check exists in the pipeline; the vectorize routine
//     tolerates back-edges by treating them as zero contributions.
type PEConfig struct {
	// CrossoverBias is the per-attribute probability of taking the
	// fitter parent's attribute (the programmable bias register).
	CrossoverBias float64
	// PerturbProb is the per-attribute perturbation probability.
	PerturbProb float64
	// PerturbScale is the full-scale magnitude of a perturbation: the
	// 8-bit random maps to [-PerturbScale, +PerturbScale).
	PerturbScale float64
	// DeleteProb is the per-gene deletion probability.
	DeleteProb float64
	// MaxDeletedNodes is the node-deletion threshold that keeps the
	// genome alive.
	MaxDeletedNodes int
	// AddNodeProb and AddConnProb are the per-gene addition
	// probabilities evaluated in the add-gene engine.
	AddNodeProb float64
	AddConnProb float64
}

// DefaultPEConfig mirrors the software defaults at hardware precision.
func DefaultPEConfig() PEConfig {
	return PEConfig{
		CrossoverBias:   0.5,
		PerturbProb:     0.08,
		PerturbScale:    0.5,
		DeleteProb:      0.002,
		MaxDeletedNodes: 1,
		AddNodeProb:     0.001,
		AddConnProb:     0.004,
	}
}

// PEStats reports what one child's pipeline pass did.
type PEStats struct {
	CyclesStreamed int
	Crossovers     int
	Perturbs       int
	DeletedNodes   int
	DeletedConns   int
	AddedNodes     int
	AddedConns     int
}

// prob8 converts a probability to the 8-bit comparator threshold the
// hardware uses.
func prob8(p float64) uint8 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 255
	}
	return uint8(p * 256)
}

// draw compares a fresh 8-bit random against a probability threshold.
func draw(prng *rng.XorWow, p float64) bool {
	return prng.Byte() < prob8(p)
}

// genePair is one aligned (parent1, parent2) gene pair from the gene
// split block; p2ok marks whether parent 2 had a homologous gene.
type genePair struct {
	p1   gene.Gene
	p2   gene.Gene
	p2ok bool
}

// splitGenes aligns the two parents' packed streams: node genes first,
// then connection genes, in key order, one pair per cycle — the gene
// split block's job. The child inherits parent 1's topology, so the
// stream walks parent 1's genes and looks up homologues in parent 2.
func splitGenes(p1, p2 *gene.Genome) []genePair {
	pairs := make([]genePair, 0, p1.NumGenes())
	for _, n := range p1.Nodes {
		pr := genePair{p1: n}
		if p2 != nil {
			pr.p2, pr.p2ok = p2.Node(n.NodeID)
		}
		pairs = append(pairs, pr)
	}
	for _, c := range p1.Conns {
		pr := genePair{p1: c}
		if p2 != nil {
			pr.p2, pr.p2ok = p2.Conn(c.Src, c.Dst)
		}
		pairs = append(pairs, pr)
	}
	return pairs
}

// pe is the functional four-stage pipeline state.
type pe struct {
	cfg  PEConfig
	prng *rng.XorWow

	// Node ID registers (Fig. 7): deleted ids, max id seen, and the
	// pending source of a two-cycle connection addition.
	deletedNodes []int32
	maxNodeID    int32
	pendingSrc   int32
	havePending  bool

	out   []gene.Gene
	stats PEStats
}

// RunChild streams one child genome through a functional PE: parent 1
// is the fitter parent (its fitness ordering is the caller's job, as in
// the chip where the selector sorts before streaming); parent 2 may be
// nil for a mutation-only child. The returned genome is rebuilt by the
// gene-merge logic: clusters sorted, duplicates resolved, dangling
// connections pruned.
func RunChild(p1, p2 *gene.Genome, childID int64, cfg PEConfig, prng *rng.XorWow) (*gene.Genome, PEStats) {
	p := &pe{cfg: cfg, prng: prng, maxNodeID: p1.MaxNodeIDIn()}
	pairs := splitGenes(p1, p2)
	for _, pr := range pairs {
		p.cycle(pr)
	}
	p.stats.CyclesStreamed = len(pairs)
	return p.merge(childID), p.stats
}

// cycle pushes one aligned gene pair through the four stages.
func (p *pe) cycle(pr genePair) {
	g := p.crossover(pr)
	g = p.perturb(g)
	g, alive := p.deleteStage(g)
	if alive {
		p.out = append(p.out, g)
	}
	p.addStage(g, alive)
}

// crossover is stage 1: per-attribute selection between the parents.
func (p *pe) crossover(pr genePair) gene.Gene {
	g := pr.p1
	if !pr.p2ok {
		return g
	}
	p.stats.Crossovers++
	pick1 := func() bool { return draw(p.prng, p.cfg.CrossoverBias) }
	if g.Kind == gene.KindNode {
		if !pick1() {
			g.Bias = pr.p2.Bias
		}
		if !pick1() {
			g.Response = pr.p2.Response
		}
		if !pick1() {
			g.Activation = pr.p2.Activation
		}
		if !pick1() {
			g.Aggregation = pr.p2.Aggregation
		}
		return g
	}
	if !pick1() {
		g.Weight = pr.p2.Weight
	}
	if !pick1() {
		g.Enabled = pr.p2.Enabled
	}
	return g
}

// mutVal produces a hardware perturbation delta: the 8-bit random
// mapped to [-scale, scale), then limited and quantized.
func (p *pe) mutVal(scale float64) float64 {
	b := p.prng.Byte()
	return (float64(b)/128 - 1) * scale
}

// perturb is stage 2: stochastic attribute perturbation.
func (p *pe) perturb(g gene.Gene) gene.Gene {
	touched := false
	if g.Kind == gene.KindNode {
		if g.Type != gene.Input {
			if draw(p.prng, p.cfg.PerturbProb) {
				g.Bias = gene.Quantize(gene.ClampAttr(g.Bias + p.mutVal(p.cfg.PerturbScale)))
				touched = true
			}
			if draw(p.prng, p.cfg.PerturbProb) {
				g.Response = gene.Quantize(gene.ClampAttr(g.Response + p.mutVal(p.cfg.PerturbScale)))
				touched = true
			}
		}
	} else {
		if draw(p.prng, p.cfg.PerturbProb) {
			g.Weight = gene.Quantize(gene.ClampAttr(g.Weight + p.mutVal(p.cfg.PerturbScale)))
			touched = true
		}
		if draw(p.prng, p.cfg.PerturbProb) {
			g.Enabled = !g.Enabled
			touched = true
		}
	}
	if touched {
		p.stats.Perturbs++
	}
	return g
}

// deleteStage is stage 3: node deletion (threshold-guarded, id stored
// in the node-id registers so later connection genes touching it are
// nullified) and connection deletion.
func (p *pe) deleteStage(g gene.Gene) (gene.Gene, bool) {
	if g.Kind == gene.KindNode {
		if g.Type == gene.Hidden &&
			len(p.deletedNodes) < p.cfg.MaxDeletedNodes &&
			draw(p.prng, p.cfg.DeleteProb) {
			p.deletedNodes = append(p.deletedNodes, g.NodeID)
			p.stats.DeletedNodes++
			return g, false
		}
		return g, true
	}
	// Connections: dropped if either endpoint was deleted, or by the
	// deletion draw.
	for _, id := range p.deletedNodes {
		if g.Src == id || g.Dst == id {
			p.stats.DeletedConns++
			return g, false
		}
	}
	if draw(p.prng, p.cfg.DeleteProb) {
		p.stats.DeletedConns++
		return g, false
	}
	return g, true
}

// addStage is stage 4: node addition (splitting the incoming
// connection, which is dropped) and the two-cycle connection addition.
func (p *pe) addStage(g gene.Gene, alive bool) {
	if g.Kind != gene.KindConn || !alive {
		return
	}
	// Node addition: replace the incoming connection with a default
	// node and two connections through it.
	if draw(p.prng, p.cfg.AddNodeProb) && p.maxNodeID < gene.MaxNodeID {
		p.maxNodeID++
		id := p.maxNodeID
		n := gene.NewNode(id, gene.Hidden)
		// The incoming connection gene is dropped (hardware semantics;
		// software NEAT disables it instead).
		p.dropLast(g)
		p.out = append(p.out, n,
			gene.NewConn(g.Src, id, 1.0),
			gene.NewConn(id, g.Dst, gene.Quantize(g.Weight)))
		p.stats.AddedNodes++
		p.stats.AddedConns += 2
		return
	}
	// Connection addition, two-cycle: latch this gene's source; on a
	// later connection gene, pair the latched source with its
	// destination.
	if !p.havePending {
		if draw(p.prng, p.cfg.AddConnProb) {
			p.pendingSrc = g.Src
			p.havePending = true
		}
		return
	}
	if g.Dst != p.pendingSrc { // avoid trivial self loops
		p.out = append(p.out, gene.NewConn(p.pendingSrc, g.Dst, 0))
		p.stats.AddedConns++
	}
	p.havePending = false
}

// dropLast removes the most recent output gene if it matches g (the
// connection the add-node engine consumes).
func (p *pe) dropLast(g gene.Gene) {
	if n := len(p.out); n > 0 {
		last := p.out[n-1]
		if last.Kind == gene.KindConn && last.Src == g.Src && last.Dst == g.Dst {
			p.out = p.out[:n-1]
		}
	}
}

// merge is the gene-merge block: rebuild the sorted two-cluster genome
// from the output stream, resolving duplicates (last write wins) and
// pruning any connection whose endpoint does not exist.
func (p *pe) merge(childID int64) *gene.Genome {
	child := gene.NewGenome(childID)
	for _, g := range p.out {
		if g.Kind == gene.KindNode {
			child.PutNode(g)
		}
	}
	for _, g := range p.out {
		if g.Kind != gene.KindConn {
			continue
		}
		if !child.HasNode(g.Src) || !child.HasNode(g.Dst) {
			continue
		}
		if dst, _ := child.Node(g.Dst); dst.Type == gene.Input {
			continue
		}
		child.PutConn(g)
	}
	return child
}
