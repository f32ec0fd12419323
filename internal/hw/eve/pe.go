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

	// nodes and conns are the output stream, one per gene kind, each
	// in stream order.
	nodes []gene.Node
	conns []gene.Conn
	stats PEStats
}

// RunChild streams one child genome through a functional PE: parent 1
// is the fitter parent (its fitness ordering is the caller's job, as in
// the chip where the selector sorts before streaming); parent 2 may be
// nil for a mutation-only child. The stream is the gene split block's:
// parent 1's node genes, then its connection genes, in key order, one
// per cycle, each aligned with its homologue in parent 2 if there is
// one (the child inherits parent 1's topology). The returned genome is
// rebuilt by the gene-merge logic: clusters sorted, duplicates
// resolved, dangling connections pruned.
func RunChild(p1, p2 *gene.Genome, childID int64, cfg PEConfig, prng *rng.XorWow) (*gene.Genome, PEStats) {
	p := &pe{cfg: cfg, prng: prng, maxNodeID: p1.MaxNodeIDIn()}
	for _, n := range p1.Nodes {
		p.nodeCycle(n, p2)
	}
	for _, c := range p1.Conns {
		p.connCycle(c, p2)
	}
	p.stats.CyclesStreamed = p1.NumGenes()
	return p.merge(childID), p.stats
}

// nodeCycle pushes one node gene of parent 1 through the four stages:
// crossover with its homologue in p2, perturbation and deletion. The
// add stage acts on connection genes only.
func (p *pe) nodeCycle(g gene.Node, p2 *gene.Genome) {
	// Stage 1, crossover: per-attribute selection between the parents.
	if p2 != nil {
		if h, ok := p2.Node(g.NodeID); ok {
			p.stats.Crossovers++
			if !p.pick1() {
				g.Bias = h.Bias
			}
			if !p.pick1() {
				g.Response = h.Response
			}
			if !p.pick1() {
				g.Activation = h.Activation
			}
			if !p.pick1() {
				g.Aggregation = h.Aggregation
			}
		}
	}
	// Stage 2, perturbation; input nodes have no evolvable attributes.
	if g.Type != gene.Input {
		touched := false
		if draw(p.prng, p.cfg.PerturbProb) {
			g.Bias = p.perturbed(g.Bias)
			touched = true
		}
		if draw(p.prng, p.cfg.PerturbProb) {
			g.Response = p.perturbed(g.Response)
			touched = true
		}
		if touched {
			p.stats.Perturbs++
		}
	}
	// Stage 3, deletion: threshold-guarded, the id stored in the node-id
	// registers so later connection genes touching it are nullified.
	if g.Type == gene.Hidden &&
		len(p.deletedNodes) < p.cfg.MaxDeletedNodes &&
		draw(p.prng, p.cfg.DeleteProb) {
		p.deletedNodes = append(p.deletedNodes, g.NodeID)
		p.stats.DeletedNodes++
		return
	}
	p.nodes = append(p.nodes, g)
}

// connCycle pushes one connection gene of parent 1 through the four
// stages: crossover with its homologue in p2, perturbation, deletion,
// and the add stage's node addition (splitting this connection, which
// is dropped) or two-cycle connection addition.
func (p *pe) connCycle(g gene.Conn, p2 *gene.Genome) {
	// Stage 1, crossover.
	if p2 != nil {
		if h, ok := p2.Conn(g.Src, g.Dst); ok {
			p.stats.Crossovers++
			if !p.pick1() {
				g.Weight = h.Weight
			}
			if !p.pick1() {
				g.Enabled = h.Enabled
			}
		}
	}
	// Stage 2, perturbation.
	touched := false
	if draw(p.prng, p.cfg.PerturbProb) {
		g.Weight = p.perturbed(g.Weight)
		touched = true
	}
	if draw(p.prng, p.cfg.PerturbProb) {
		g.Enabled = !g.Enabled
		touched = true
	}
	if touched {
		p.stats.Perturbs++
	}
	// Stage 3, deletion: dropped if either endpoint was deleted, or by
	// the deletion draw.
	for _, id := range p.deletedNodes {
		if g.Src == id || g.Dst == id {
			p.stats.DeletedConns++
			return
		}
	}
	if draw(p.prng, p.cfg.DeleteProb) {
		p.stats.DeletedConns++
		return
	}
	// Stage 4, addition. Node addition replaces this connection with a
	// default node and two connections through it: the split
	// connection is dropped (hardware semantics; software NEAT disables
	// it instead).
	if draw(p.prng, p.cfg.AddNodeProb) && p.maxNodeID < gene.MaxNodeID {
		p.maxNodeID++
		id := p.maxNodeID
		p.nodes = append(p.nodes, gene.NewNode(id, gene.Hidden))
		p.conns = append(p.conns, gene.NewConn(g.Src, id, 1.0), gene.NewConn(id, g.Dst, gene.Quantize(g.Weight)))
		p.stats.AddedNodes++
		p.stats.AddedConns += 2
		return
	}
	p.conns = append(p.conns, g)
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
		p.conns = append(p.conns, gene.NewConn(p.pendingSrc, g.Dst, 0))
		p.stats.AddedConns++
	}
	p.havePending = false
}

// pick1 is one crossover comparator: whether an attribute comes from
// the fitter parent, by the programmable bias register.
func (p *pe) pick1() bool { return draw(p.prng, p.cfg.CrossoverBias) }

// perturbed is the perturbation engine's output for attribute v: v
// plus a delta from an 8-bit random mapped to [-PerturbScale,
// PerturbScale), then limited and quantized.
func (p *pe) perturbed(v float64) float64 {
	delta := (float64(p.prng.Byte())/128 - 1) * p.cfg.PerturbScale
	return gene.Quantize(gene.ClampAttr(v + delta))
}

// merge is the gene-merge block: rebuild the sorted two-cluster genome
// from the output stream, resolving duplicates (last write wins) and
// pruning any connection whose endpoint does not exist.
func (p *pe) merge(childID int64) *gene.Genome {
	child := gene.NewGenome(childID)
	for _, n := range p.nodes {
		child.PutNode(n)
	}
	for _, c := range p.conns {
		if !child.HasNode(c.Src) {
			continue
		}
		if dst, ok := child.Node(c.Dst); !ok || dst.Type == gene.Input {
			continue
		}
		child.PutConn(c)
	}
	return child
}
