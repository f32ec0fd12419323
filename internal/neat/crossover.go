package neat

import "repro/internal/gene"

// crossover produces a child genome from two parents, parent1 being the
// fitter (ties broken by the caller). It implements the crossover engine
// semantics of Fig. 7:
//
//   - genes are aligned by key (node id / connection endpoints) — the
//     gene-split block's alignment job;
//   - for matching genes, each attribute is cherry-picked from one of
//     the two parents by comparing a PRNG draw against the programmable
//     bias (CrossoverBias, default 0.5 — attributes from the fitter
//     parent win with that probability);
//   - disjoint and excess genes are inherited from the fitter parent,
//     so the child's topology equals parent1's (classic NEAT).
//
// One OpCrossover op is tallied per child gene, the gene-level
// parallelism unit of Fig. 5(a).
func (m *mutator) crossover(p1, p2 *gene.Genome, childID int64) *gene.Genome {
	child := gene.NewGenome(childID)
	child.Nodes = make([]gene.Node, 0, len(p1.Nodes))
	child.Conns = make([]gene.Conn, 0, len(p1.Conns))

	// Merge-join gene alignment: both parents keep Nodes sorted by id
	// and Conns sorted by (Src, Dst), so matching genes are found by
	// advancing a single p2 cursor instead of a binary search per p1
	// gene. PRNG draws happen only at matches, in p1 order — exactly
	// where the lookup-based alignment drew them.
	j := 0
	for _, n1 := range p1.Nodes {
		for j < len(p2.Nodes) && p2.Nodes[j].NodeID < n1.NodeID {
			j++
		}
		n := n1
		if j < len(p2.Nodes) && p2.Nodes[j].NodeID == n1.NodeID {
			n = m.mixNode(n1, p2.Nodes[j])
		}
		child.Nodes = append(child.Nodes, n)
	}
	j = 0
	for _, c1 := range p1.Conns {
		for j < len(p2.Conns) && connKeyLess(&p2.Conns[j], &c1) {
			j++
		}
		c := c1
		if j < len(p2.Conns) && p2.Conns[j].Src == c1.Src && p2.Conns[j].Dst == c1.Dst {
			c = m.mixConn(c1, p2.Conns[j])
		}
		child.Conns = append(child.Conns, c)
	}
	m.ops[OpCrossover] += int64(child.NumGenes())
	return child
}

// connKeyLess orders connection genes by their (Src, Dst) sort key.
func connKeyLess(a, b *gene.Conn) bool {
	return a.Src < b.Src || (a.Src == b.Src && a.Dst < b.Dst)
}

// pick1 reports whether the attribute should come from the fitter
// parent: PRNG draw compared against the crossover bias, one comparator
// per attribute in the hardware.
func (m *mutator) pick1() bool { return m.rnd.Float64() < m.cfg.CrossoverBias }

// mixNode cherry-picks the four node attributes between homologous node
// genes.
func (m *mutator) mixNode(a, b gene.Node) gene.Node {
	out := a
	if !m.pick1() {
		out.Bias = b.Bias
	}
	if !m.pick1() {
		out.Response = b.Response
	}
	if !m.pick1() {
		out.Activation = b.Activation
	}
	if !m.pick1() {
		out.Aggregation = b.Aggregation
	}
	return out
}

// mixConn cherry-picks weight and enabled flag between homologous
// connection genes.
func (m *mutator) mixConn(a, b gene.Conn) gene.Conn {
	out := a
	if !m.pick1() {
		out.Weight = b.Weight
	}
	if !m.pick1() {
		out.Enabled = b.Enabled
	}
	return out
}
