package gene

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// versionCounter issues process-unique phenotype version stamps. A
// stamp identifies one exact (topology, attributes) state of a genome:
// any two genomes carrying the same stamp are guaranteed to build the
// same phenotype, which is what lets the network compile cache reuse
// programs across generations (the paper's genome-level reuse applied
// to software). Stamps are never reused, so a cache keyed by stamp can
// never alias two different structures.
var versionCounter atomic.Int64

// Genome is one individual: the complete list of genes describing a
// neural network, plus its identity and most recent fitness.
//
// Genes are stored in the two sorted logical clusters of Section IV-C5 —
// node genes ascending by node id, then connection genes ascending by
// (src, dst) — as two tables of fixed-width rows, one per gene kind.
// Keeping the in-memory layout identical to the hardware layout makes
// the gene-split streaming in the EvE model a plain walk over the
// slices.
type Genome struct {
	ID      int64
	Fitness float64

	// Nodes holds the node genes sorted by NodeID.
	Nodes []Node
	// Conns holds the connection genes sorted by (Src, Dst).
	Conns []Conn

	// version is the phenotype version stamp: assigned lazily, copied
	// by Clone, and replaced whenever a gene changes. It is deliberately
	// unexported (and absent from checkpoints — restored genomes get a
	// fresh stamp, landing in an empty cache anyway).
	version int64
}

// Version returns the genome's phenotype version stamp, assigning one on
// first use. Two genomes share a stamp only when one is an unmodified
// clone of the other, so the stamp is a sound compile-cache key.
func (g *Genome) Version() int64 {
	if g.version == 0 {
		g.version = versionCounter.Add(1)
	}
	return g.version
}

// BumpVersion invalidates the genome's phenotype stamp. Every mutation
// path that edits genes in place (rather than through PutNode/PutConn/
// DeleteNode/DeleteConn, which bump automatically) must call this, or a
// compile cache could serve a stale phenotype.
func (g *Genome) BumpVersion() { g.version = versionCounter.Add(1) }

// NewGenome returns an empty genome with the given id.
func NewGenome(id int64) *Genome {
	return &Genome{ID: id}
}

// Clone deep-copies the genome (fitness and phenotype version stamp
// included — an unmodified clone builds the identical phenotype, so it
// shares the parent's compile-cache entry until its first mutation).
func (g *Genome) Clone() *Genome {
	c := &Genome{ID: g.ID, Fitness: g.Fitness, version: g.Version()}
	c.Nodes = append([]Node(nil), g.Nodes...)
	c.Conns = append([]Conn(nil), g.Conns...)
	return c
}

// NumGenes is the total gene count — the unit of Fig. 4(b).
func (g *Genome) NumGenes() int { return len(g.Nodes) + len(g.Conns) }

// SizeBytes is the genome's storage footprint in the genome buffer:
// one 64-bit word per gene. This is the unit of the Fig. 5(b) and
// Fig. 10(d) memory-footprint results.
func (g *Genome) SizeBytes() int { return g.NumGenes() * WordBytes }

// nodeIndex locates a node gene by id, returning its index and presence.
func (g *Genome) nodeIndex(id int32) (int, bool) {
	i := sort.Search(len(g.Nodes), func(i int) bool { return g.Nodes[i].NodeID >= id })
	if i < len(g.Nodes) && g.Nodes[i].NodeID == id {
		return i, true
	}
	return i, false
}

// connIndex locates a connection gene by (src, dst).
func (g *Genome) connIndex(src, dst int32) (int, bool) {
	i := sort.Search(len(g.Conns), func(i int) bool {
		c := g.Conns[i]
		if c.Src != src {
			return c.Src >= src
		}
		return c.Dst >= dst
	})
	if i < len(g.Conns) && g.Conns[i].Src == src && g.Conns[i].Dst == dst {
		return i, true
	}
	return i, false
}

// Node returns the node gene with the given id, if present.
func (g *Genome) Node(id int32) (Node, bool) {
	if i, ok := g.nodeIndex(id); ok {
		return g.Nodes[i], true
	}
	return Node{}, false
}

// Conn returns the connection gene (src → dst), if present.
func (g *Genome) Conn(src, dst int32) (Conn, bool) {
	if i, ok := g.connIndex(src, dst); ok {
		return g.Conns[i], true
	}
	return Conn{}, false
}

// HasNode reports whether the genome contains a node gene with the id.
func (g *Genome) HasNode(id int32) bool { _, ok := g.nodeIndex(id); return ok }

// HasConn reports whether the genome contains the connection (src → dst).
func (g *Genome) HasConn(src, dst int32) bool { _, ok := g.connIndex(src, dst); return ok }

// PutNode inserts or replaces a node gene, keeping the cluster sorted.
func (g *Genome) PutNode(n Node) {
	g.BumpVersion()
	i, ok := g.nodeIndex(n.NodeID)
	if ok {
		g.Nodes[i] = n
		return
	}
	g.Nodes = append(g.Nodes, Node{})
	copy(g.Nodes[i+1:], g.Nodes[i:])
	g.Nodes[i] = n
}

// PutConn inserts or replaces a connection gene, keeping the cluster
// sorted.
func (g *Genome) PutConn(c Conn) {
	g.BumpVersion()
	i, ok := g.connIndex(c.Src, c.Dst)
	if ok {
		g.Conns[i] = c
		return
	}
	g.Conns = append(g.Conns, Conn{})
	copy(g.Conns[i+1:], g.Conns[i:])
	g.Conns[i] = c
}

// DeleteNode removes the node gene with the id and every connection gene
// touching it (the dangling-connection pruning the Delete Gene engine
// performs in hardware). It reports whether the node existed.
func (g *Genome) DeleteNode(id int32) bool {
	i, ok := g.nodeIndex(id)
	if !ok {
		return false
	}
	g.BumpVersion()
	g.Nodes = append(g.Nodes[:i], g.Nodes[i+1:]...)
	kept := g.Conns[:0]
	for _, c := range g.Conns {
		if c.Src != id && c.Dst != id {
			kept = append(kept, c)
		}
	}
	g.Conns = kept
	return true
}

// DeleteConn removes the connection (src → dst), reporting whether it
// existed.
func (g *Genome) DeleteConn(src, dst int32) bool {
	i, ok := g.connIndex(src, dst)
	if !ok {
		return false
	}
	g.BumpVersion()
	g.Conns = append(g.Conns[:i], g.Conns[i+1:]...)
	return true
}

// MaxNodeIDIn returns the largest node id present, or -1 for an empty
// genome. The Add Gene engine assigns new-node ids above this value.
func (g *Genome) MaxNodeIDIn() int32 {
	if len(g.Nodes) == 0 {
		return -1
	}
	return g.Nodes[len(g.Nodes)-1].NodeID
}

// InputIDs returns the ids of input-type nodes in ascending order.
func (g *Genome) InputIDs() []int32 { return g.idsOfType(Input) }

// OutputIDs returns the ids of output-type nodes in ascending order.
func (g *Genome) OutputIDs() []int32 { return g.idsOfType(Output) }

// HiddenIDs returns the ids of hidden nodes in ascending order.
func (g *Genome) HiddenIDs() []int32 { return g.idsOfType(Hidden) }

func (g *Genome) idsOfType(t NodeType) []int32 {
	var ids []int32
	for _, n := range g.Nodes {
		if n.Type == t {
			ids = append(ids, n.NodeID)
		}
	}
	return ids
}

// Pack serializes the genome into its hardware layout: node-gene words
// then connection-gene words, both clusters already sorted.
func (g *Genome) Pack() []Word {
	words := make([]Word, 0, g.NumGenes())
	for _, n := range g.Nodes {
		words = append(words, n.Pack())
	}
	for _, c := range g.Conns {
		words = append(words, c.Pack())
	}
	return words
}

// FromWords reconstructs a genome from packed words. Genes arrive at
// quantized precision, as they would from the genome buffer SRAM.
func FromWords(id int64, words []Word) *Genome {
	g := NewGenome(id)
	for _, w := range words {
		if w.Kind() == KindNode {
			g.PutNode(w.Node())
		} else {
			g.PutConn(w.Conn())
		}
	}
	return g
}

// Validate checks the genome's structural invariants:
//   - both clusters sorted with unique keys,
//   - every connection endpoint refers to an existing node,
//   - no connection terminates at an input node,
//   - node ids fit the 16-bit hardware field.
//
// It is one pass: each connection's sort order is checked before its
// endpoints are looked up, so a cursor over the (already checked) node
// cluster finds every source, and one binary search finds each
// destination and its node type.
func (g *Genome) Validate() error {
	for i, n := range g.Nodes {
		if n.NodeID < 0 || n.NodeID > MaxNodeID {
			return fmt.Errorf("genome %d: node id %d outside hardware range", g.ID, n.NodeID)
		}
		if i > 0 && g.Nodes[i-1].NodeID >= n.NodeID {
			return fmt.Errorf("genome %d: node cluster unsorted at %d", g.ID, i)
		}
	}
	src := 0 // index of the first node whose id is not below c.Src
	for i, c := range g.Conns {
		if i > 0 {
			p := g.Conns[i-1]
			if p.Src > c.Src || (p.Src == c.Src && p.Dst >= c.Dst) {
				return fmt.Errorf("genome %d: conn cluster unsorted at %d", g.ID, i)
			}
		}
		for src < len(g.Nodes) && g.Nodes[src].NodeID < c.Src {
			src++
		}
		if src == len(g.Nodes) || g.Nodes[src].NodeID != c.Src {
			return fmt.Errorf("genome %d: conn %d->%d has dangling source", g.ID, c.Src, c.Dst)
		}
		dst, ok := g.nodeIndex(c.Dst)
		if !ok {
			return fmt.Errorf("genome %d: conn %d->%d has dangling destination", g.ID, c.Src, c.Dst)
		}
		if g.Nodes[dst].Type == Input {
			return fmt.Errorf("genome %d: conn %d->%d terminates at input node", g.ID, c.Src, c.Dst)
		}
	}
	return nil
}

// String summarizes the genome.
func (g *Genome) String() string {
	return fmt.Sprintf("genome(id=%d fit=%.3f nodes=%d conns=%d)",
		g.ID, g.Fitness, len(g.Nodes), len(g.Conns))
}
