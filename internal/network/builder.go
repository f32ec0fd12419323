package network

import (
	"fmt"

	"repro/internal/gene"
)

// Builder compiles genomes into phenotype programs. It owns the compile
// pass's scratch memory (id remap table, Kahn queue, degree and depth
// arrays), so a worker that compiles one genome after another — the
// population-level-parallel evaluation loop — pays no per-genome map or
// queue allocations. A Builder is NOT safe for concurrent use; give
// each worker its own. The zero value is ready to use.
type Builder struct {
	// slot maps node id → dense genome index. Only ids present in the
	// genome being built are ever read (Validate guarantees every
	// connection endpoint exists), so stale entries from earlier builds
	// are harmless and the table never needs clearing.
	slot []int32

	indeg  []int32 // per-vertex enabled fan-in count (consumed by Kahn)
	depth  []int32 // longest-path layer per dense index
	outOff []int32 // CSR offsets of the out-adjacency, len nv+1
	outAdj []int32 // CSR out-neighbors (dense indices)
	fill   []int32 // per-vertex fill cursors for the CSR passes
	queue  []int32 // Kahn worklist
	order  []int32 // dense indices in (depth, id) order
	posOf  []int32 // dense index → final vertex position
	depOff []int32 // per-depth offsets into order
}

// grow returns s resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers that need zeros clear it.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Build compiles the phenotype for a genome. It fails if the genome's
// enabled connections contain a cycle (the paper's inference model is a
// DAG) or if the genome fails validation. The returned Network owns
// fresh evaluation state; the compiled program inside it never aliases
// the Builder's scratch, so it may outlive any number of later Builds.
func (b *Builder) Build(g *gene.Genome) (*Network, error) {
	p, err := b.compile(g)
	if err != nil {
		return nil, err
	}
	return p.instantiate(), nil
}

// Compile compiles the genome and returns the shared immutable Program
// handle without allocating scalar evaluation state — the batch
// engine's entry point for one-off (uncached) compiles.
func (b *Builder) Compile(g *gene.Genome) (Program, error) {
	p, err := b.compile(g)
	if err != nil {
		return Program{}, err
	}
	return Program{p: p}, nil
}

// compile runs the full pass: dense id remap, CSR adjacency, Kahn
// longest-path layering, vertex placement, and the fan-in CSR in
// final-position space.
func (b *Builder) compile(g *gene.Genome) (*program, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	nv := len(g.Nodes)

	// Dense remap: node id → index in g.Nodes (already sorted by id).
	b.slot = grow(b.slot, int(g.MaxNodeIDIn())+1)
	slot := b.slot
	for i, n := range g.Nodes {
		slot[n.NodeID] = int32(i)
	}

	// Degree counts and out-adjacency CSR over enabled connections.
	b.indeg = grow(b.indeg, nv)
	b.outOff = grow(b.outOff, nv+1)
	clear(b.indeg)
	clear(b.outOff)
	ne := 0
	for _, c := range g.Conns {
		if !c.Enabled {
			continue
		}
		b.outOff[slot[c.Src]+1]++
		b.indeg[slot[c.Dst]]++
		ne++
	}
	for i := 0; i < nv; i++ {
		b.outOff[i+1] += b.outOff[i]
	}
	b.outAdj = grow(b.outAdj, ne)
	b.fill = grow(b.fill, nv)
	clear(b.fill)
	for _, c := range g.Conns {
		if !c.Enabled {
			continue
		}
		s := slot[c.Src]
		b.outAdj[b.outOff[s]+b.fill[s]] = slot[c.Dst]
		b.fill[s]++
	}

	// Layer assignment by longest path from the inputs (Kahn's
	// algorithm over enabled connections).
	b.depth = grow(b.depth, nv)
	clear(b.depth)
	b.queue = b.queue[:0]
	for i := 0; i < nv; i++ {
		if b.indeg[i] == 0 {
			b.queue = append(b.queue, int32(i))
		}
	}
	processed := 0
	for head := 0; head < len(b.queue); head++ {
		i := b.queue[head]
		processed++
		d := b.depth[i] + 1
		for k := b.outOff[i]; k < b.outOff[i+1]; k++ {
			j := b.outAdj[k]
			if d > b.depth[j] {
				b.depth[j] = d
			}
			b.indeg[j]--
			if b.indeg[j] == 0 {
				b.queue = append(b.queue, j)
			}
		}
	}
	if processed != nv {
		return nil, fmt.Errorf("network: genome %d has a cycle among enabled connections", g.ID)
	}
	maxDepth := int32(0)
	for i := 0; i < nv; i++ {
		if b.depth[i] > maxDepth {
			maxDepth = b.depth[i]
		}
	}

	// The schedule runs the vertices in (depth, id) order: a stable
	// counting sort, since g.Nodes is already ascending by id.
	b.depOff = grow(b.depOff, int(maxDepth)+2)
	clear(b.depOff)
	for i := 0; i < nv; i++ {
		b.depOff[b.depth[i]+1]++
	}
	for d := int32(0); d <= maxDepth; d++ {
		b.depOff[d+1] += b.depOff[d]
	}
	b.order = grow(b.order, nv)
	for i := 0; i < nv; i++ {
		d := b.depth[i]
		b.order[b.depOff[d]] = int32(i)
		b.depOff[d]++
	}

	// Vertex placement: the inputs first and the outputs last, each in
	// id order, and every other vertex between them in schedule order.
	// So a batch's observation and action planes are fixed rows of its
	// activation state.
	numIn, numOut := 0, 0
	for _, n := range g.Nodes {
		switch n.Type {
		case gene.Input:
			numIn++
		case gene.Output:
			numOut++
		}
	}
	b.posOf = grow(b.posOf, nv)
	in, out := int32(0), int32(nv-numOut)
	for i, n := range g.Nodes {
		switch n.Type {
		case gene.Input:
			b.posOf[i] = in
			in++
		case gene.Output:
			b.posOf[i] = out
			out++
		}
	}
	mid := int32(numIn)
	for _, i := range b.order {
		if t := g.Nodes[i].Type; t != gene.Input && t != gene.Output {
			b.posOf[i] = mid
			mid++
		}
	}

	// Fill the program's flat per-vertex attribute arrays.
	p := &program{
		ids:     make([]int32, nv),
		bias:    make([]float64, nv),
		resp:    make([]float64, nv),
		act:     make([]gene.Activation, nv),
		agg:     make([]gene.Aggregation, nv),
		edgeOff: make([]int32, nv+1),
		edgePos: make([]int32, ne),
		edgeW:   make([]float64, ne),
		numIn:   numIn,
		numOut:  numOut,
		macs:    ne,
	}
	for i, n := range g.Nodes {
		pos := b.posOf[i]
		p.ids[pos] = n.NodeID
		p.bias[pos] = n.Bias
		p.resp[pos] = n.Response
		p.act[pos] = n.Activation
		p.agg[pos] = n.Aggregation
	}

	// Fan-in CSR in final-position space. Connections are visited in
	// genome (src, dst) order, so each vertex's in-edge order — and
	// therefore its summation order — matches the old map-based builder
	// exactly.
	for _, c := range g.Conns {
		if c.Enabled {
			p.edgeOff[b.posOf[slot[c.Dst]]+1]++
		}
	}
	for i := 0; i < nv; i++ {
		p.edgeOff[i+1] += p.edgeOff[i]
	}
	clear(b.fill)
	for _, c := range g.Conns {
		if !c.Enabled {
			continue
		}
		dp := b.posOf[slot[c.Dst]]
		k := p.edgeOff[dp] + b.fill[dp]
		p.edgePos[k] = b.posOf[slot[c.Src]]
		p.edgeW[k] = c.Weight
		b.fill[dp]++
	}

	// Evaluation schedule: the non-input vertices in order, one layer
	// per depth. Non-input vertices stuck at depth 0 (no enabled
	// fan-in) still need a vertex update for their bias; they form a
	// pseudo-layer evaluated first.
	p.evalPos = make([]int32, 0, nv-numIn)
	p.layerEnd = make([]int32, 0, int(maxDepth)+1)
	layer := int32(-1) // the depth of the layer being filled
	for _, i := range b.order {
		if g.Nodes[i].Type == gene.Input {
			continue
		}
		if d := b.depth[i]; d != layer {
			if layer >= 0 {
				p.layerEnd = append(p.layerEnd, int32(len(p.evalPos)))
			}
			layer = d
		}
		p.evalPos = append(p.evalPos, b.posOf[i])
	}
	if layer >= 0 {
		p.layerEnd = append(p.layerEnd, int32(len(p.evalPos)))
	}
	p.topoHash = topoHashOf(p)
	return p, nil
}
