package network

import (
	"fmt"
	"math"

	"repro/internal/gene"
)

// program is the compiled, immutable form of one genome's phenotype:
// the irregular DAG flattened into contiguous CSR-style arrays in
// evaluation order. Building it is the "Genome to NN Topology" step of
// the GeneSys walkthrough (Fig. 6, step 1); it is immutable after the
// compile pass, so one program can back any number of Network instances
// (and be shared across generations through a Cache — the software
// mirror of the paper's genome-level reuse).
type program struct {
	// Per-vertex attributes, indexed by position: the numIn inputs
	// first and the numOut outputs last, each in id order, and the
	// other vertices between them in (layer, id) order.
	ids  []int32
	bias []float64
	resp []float64
	act  []gene.Activation
	agg  []gene.Aggregation

	// Fan-in in CSR form: the in-edges of the vertex at position p are
	// (edgePos[k], edgeW[k]) for k in [edgeOff[p], edgeOff[p+1]), in the
	// genome's (src, dst) connection order — the order the previous
	// map-based evaluator summed in, so outputs stay byte-identical.
	edgeOff []int32
	edgePos []int32
	edgeW   []float64

	numIn, numOut int

	// evalPos lists the non-input vertex positions in update order,
	// (layer, id); layerEnd[l] is the end index (into evalPos) of layer
	// l — the unit the vectorize routine packs (Plan).
	evalPos  []int32
	layerEnd []int32

	macs int

	// topoHash fingerprints the evaluation structure (everything above
	// except ids and the parameter arrays bias/resp/edgeW) — the batch
	// engine's lane-compatibility grouping key. Set once by compile.
	topoHash uint64
}

// Network is an evaluable instance of a compiled phenotype: a shared
// immutable program plus this instance's private activation and output
// buffers. Instances are cheap (two float slices), so a compile cache
// can hand out a fresh instance per evaluation while sharing the
// program.
type Network struct {
	prog   *program
	values []float64
	out    []float64
}

// instantiate wraps the program with fresh evaluation state.
func (p *program) instantiate() *Network {
	return &Network{
		prog:   p,
		values: make([]float64, len(p.ids)),
		out:    make([]float64, p.numOut),
	}
}

// New builds the phenotype for a genome with a one-shot Builder. It
// fails if the genome's enabled connections contain a cycle (the
// paper's inference model is a DAG) or if the genome fails validation.
// Callers compiling many genomes should reuse a Builder (or a Cache)
// instead.
func New(g *gene.Genome) (*Network, error) {
	return new(Builder).Build(g)
}

// NumInputs returns the observation width the network expects.
func (n *Network) NumInputs() int { return n.prog.numIn }

// NumOutputs returns the action width the network produces.
func (n *Network) NumOutputs() int { return n.prog.numOut }

// NumVertices returns the node count.
func (n *Network) NumVertices() int { return len(n.prog.ids) }

// NumEdges returns the enabled connection count — the MAC count of one
// inference pass, the quantity Table II compares against DQN.
func (n *Network) NumEdges() int { return n.prog.macs }

// Depth returns the number of vertex-update layers.
func (n *Network) Depth() int { return len(n.prog.layerEnd) }

// Feed evaluates the network on one observation, returning the output
// activations in output-node order. The returned slice is reused across
// calls; copy it (or use FeedInto) if it must survive the next Feed.
func (n *Network) Feed(obs []float64) ([]float64, error) {
	if err := n.FeedInto(n.out, obs); err != nil {
		return nil, err
	}
	return n.out, nil
}

// FeedInto evaluates the network on one observation, writing the output
// activations into dst (which must have length NumOutputs). It performs
// no heap allocations, so the evaluation inner loop can run
// allocation-free with a caller-owned destination.
func (n *Network) FeedInto(dst, obs []float64) error {
	p := n.prog
	if len(obs) != p.numIn {
		return fmt.Errorf("network: observation width %d, want %d", len(obs), p.numIn)
	}
	if len(dst) != p.numOut {
		return fmt.Errorf("network: destination width %d, want %d", len(dst), p.numOut)
	}
	vals := n.values
	copy(vals, obs)
	for _, pos := range p.evalPos {
		lo, hi := p.edgeOff[pos], p.edgeOff[pos+1]
		var a float64
		if f := p.agg[pos]; f == gene.AggSum {
			// Sum fast path: accumulate inline, in edge order — the
			// same float additions, in the same order, as summing the
			// old per-vertex product slice. Slicing to a shared length
			// lets the compiler drop the weight bounds check.
			src := p.edgePos[lo:hi]
			w := p.edgeW[lo:hi]
			w = w[:len(src)]
			for k, sp := range src {
				a += vals[sp] * w[k]
			}
		} else {
			a = aggregateEdges(f, vals, p.edgePos[lo:hi], p.edgeW[lo:hi])
		}
		pre := p.bias[pos] + p.resp[pos]*a
		if p.act[pos] == gene.ActSigmoid {
			// Inlined Activate sigmoid case (same ops, same order) —
			// sigmoid is the default gene and dominates evolved
			// populations, and the call overhead is measurable at this
			// loop's scale.
			vals[pos] = 1 / (1 + math.Exp(-clampExp(5*pre)))
		} else {
			vals[pos] = Activate(p.act[pos], pre)
		}
	}
	copy(dst, vals[len(vals)-p.numOut:])
	return nil
}

// aggregateEdges is the non-sum aggregation path of FeedInto: it
// combines the weighted inputs in edge order without materializing
// them, matching Aggregate over the product list exactly (an empty
// fan-in aggregates to 0, so the vertex outputs Activate(bias)).
func aggregateEdges(f gene.Aggregation, vals []float64, pos []int32, w []float64) float64 {
	if len(pos) == 0 {
		return 0
	}
	switch f {
	case gene.AggProduct:
		p := 1.0
		for k, sp := range pos {
			p *= vals[sp] * w[k]
		}
		return p
	case gene.AggMax:
		m := vals[pos[0]] * w[0]
		for k := 1; k < len(pos); k++ {
			if x := vals[pos[k]] * w[k]; x > m {
				m = x
			}
		}
		return m
	case gene.AggMin:
		m := vals[pos[0]] * w[0]
		for k := 1; k < len(pos); k++ {
			if x := vals[pos[k]] * w[k]; x < m {
				m = x
			}
		}
		return m
	case gene.AggMean:
		var s float64
		for k, sp := range pos {
			s += vals[sp] * w[k]
		}
		return s / float64(len(pos))
	default: // AggSum and unknown ids sum, as Aggregate does
		var s float64
		for k, sp := range pos {
			s += vals[sp] * w[k]
		}
		return s
	}
}

// Values returns the current activation of every vertex (post-Feed),
// keyed by node id. Used by tests and debugging tools.
func (n *Network) Values() map[int32]float64 {
	m := make(map[int32]float64, len(n.prog.ids))
	for i, id := range n.prog.ids {
		m[id] = n.values[i]
	}
	return m
}
