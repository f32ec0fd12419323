package neat

import (
	"sort"

	"repro/internal/gene"
	"repro/internal/rng"
)

// mutator applies the NEAT mutation operators to one child genome,
// tallying its gene-level operations by type. It corresponds to the
// mutation stages of the EvE PE pipeline (perturbation engine, delete
// gene engine, add gene engine).
type mutator struct {
	cfg *Config
	rnd *rng.XorWow
	ids *idAssigner
	// scratch holds the population's reusable buffers (candidate-id
	// slices, cycle-search visited set). Lazily allocated when the
	// mutator is built standalone, e.g. in tests.
	scratch *epochScratch

	// ops tallies the child's gene-level operations by type.
	ops [NumOps]int64
}

func (m *mutator) scratchBuf() *epochScratch {
	if m.scratch == nil {
		m.scratch = &epochScratch{}
	}
	return m.scratch
}

// mutate applies, in hardware pipeline order, attribute perturbation,
// gene deletion, and gene addition to g.
func (m *mutator) mutate(g *gene.Genome) {
	m.perturb(g)
	m.deleteGenes(g)
	m.addGenes(g)
}

// perturb walks every gene and stochastically perturbs its attributes —
// the perturbation engine stage. One op is tallied per gene touched.
// Because it edits genes in place (bypassing the Put* editors), it must
// bump the genome's phenotype version itself when anything changed.
func (m *mutator) perturb(g *gene.Genome) {
	cfg, r := m.cfg, m.rnd
	changed := false
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Type == gene.Input {
			// Input nodes carry no evolvable attributes; they are fed
			// directly from the observation.
			continue
		}
		touched := false
		if r.Bool(cfg.BiasMutateRate) {
			n.Bias = gene.ClampAttr(n.Bias + r.NormFloat64()*cfg.BiasPerturbPower)
			touched = true
		}
		if r.Bool(cfg.ResponseMutateRate) {
			n.Response = gene.ClampAttr(n.Response + r.NormFloat64()*cfg.ResponsePerturbPower)
			touched = true
		}
		if r.Bool(cfg.ActivationMutateRate) {
			n.Activation = gene.Activation(r.Intn(gene.NumActivations))
			touched = true
		}
		if r.Bool(cfg.AggregationMutateRate) {
			n.Aggregation = gene.Aggregation(r.Intn(gene.NumAggregations))
			touched = true
		}
		if touched {
			changed = true
			m.ops[OpPerturb]++
		}
	}
	for i := range g.Conns {
		c := &g.Conns[i]
		touched := false
		if r.Bool(cfg.WeightMutateRate) {
			if r.Bool(cfg.WeightReplaceRate) {
				c.Weight = gene.ClampAttr(r.NormFloat64() * cfg.WeightInitPower)
			} else {
				c.Weight = gene.ClampAttr(c.Weight + r.NormFloat64()*cfg.WeightPerturbPower)
			}
			touched = true
		}
		if r.Bool(cfg.EnableMutateRate) {
			c.Enabled = !c.Enabled
			touched = true
		}
		if touched {
			changed = true
			m.ops[OpPerturb]++
		}
	}
	if changed {
		g.BumpVersion()
	}
}

// deleteGenes is the delete-gene engine stage: with the configured
// probabilities, remove a hidden node (pruning its connections) or a
// connection. Node deletions are capped per child by MaxDeletedNodes to
// keep the genome alive, mirroring the hardware's deleted-node counter.
func (m *mutator) deleteGenes(g *gene.Genome) {
	cfg, r := m.cfg, m.rnd
	deletedNodes := 0
	if r.Bool(cfg.DeleteNodeProb) && deletedNodes < cfg.MaxDeletedNodes {
		// Count-then-pick the k-th hidden node in ascending-id order —
		// the same draw and the same victim as indexing g.HiddenIDs()
		// (Nodes are id-sorted), without materializing the id slice.
		hiddenCount := 0
		for _, n := range g.Nodes {
			if n.Type == gene.Hidden {
				hiddenCount++
			}
		}
		if hiddenCount > 0 {
			k := r.Intn(hiddenCount)
			var id int32
			for _, n := range g.Nodes {
				if n.Type == gene.Hidden {
					if k == 0 {
						id = n.NodeID
						break
					}
					k--
				}
			}
			// Count the node and each pruned connection as deletion ops.
			for _, c := range g.Conns {
				if c.Src == id || c.Dst == id {
					m.ops[OpDeleteConn]++
				}
			}
			g.DeleteNode(id)
			deletedNodes++
			m.ops[OpDeleteNode]++
		}
	}
	if r.Bool(cfg.DeleteConnProb) && len(g.Conns) > 1 {
		i := r.Intn(len(g.Conns))
		c := g.Conns[i]
		g.DeleteConn(c.Src, c.Dst)
		m.ops[OpDeleteConn]++
	}
}

// addGenes is the add-gene engine stage: with the configured
// probabilities, split a connection with a new node, or add a fresh
// connection between previously unconnected nodes.
func (m *mutator) addGenes(g *gene.Genome) {
	if m.rnd.Bool(m.cfg.AddNodeProb) {
		m.addNode(g)
	}
	if m.rnd.Bool(m.cfg.AddConnProb) {
		m.addConn(g)
	}
}

// addNode splits a random enabled connection a→b: the connection is
// disabled and replaced by a→n (weight 1) and n→b (original weight),
// with n a fresh node carrying default attributes.
func (m *mutator) addNode(g *gene.Genome) {
	r := m.rnd
	// Count-then-pick the k-th enabled connection in key order, without
	// collecting the enabled connections into a slice.
	enabledCount := 0
	for i := range g.Conns {
		if g.Conns[i].Enabled {
			enabledCount++
		}
	}
	if enabledCount == 0 {
		return
	}
	k := r.Intn(enabledCount)
	var c gene.Conn
	for i := range g.Conns {
		if g.Conns[i].Enabled {
			if k == 0 {
				c = g.Conns[i]
				break
			}
			k--
		}
	}
	id := m.ids.nodeIDForSplit(g, c.Src, c.Dst)
	if id > gene.MaxNodeID || g.HasNode(id) {
		return
	}
	n := gene.NewNode(id, gene.Hidden)
	g.PutNode(n)
	// Disable the split connection rather than deleting it, preserving
	// the historical gene (classic NEAT).
	c.Enabled = false
	g.PutConn(c)
	in := gene.NewConn(c.Src, id, 1.0)
	out := gene.NewConn(id, c.Dst, c.Weight)
	g.PutConn(in)
	g.PutConn(out)
	m.ops[OpAddNode]++
	m.ops[OpAddConn] += 2
}

// addConn adds one new connection src→dst where src is an input or
// hidden node, dst is a hidden or output node, the pair is not already
// connected, and (in feed-forward mode) the edge does not close a cycle.
func (m *mutator) addConn(g *gene.Genome) {
	r, s := m.rnd, m.scratchBuf()
	srcs, dsts := s.srcs[:0], s.dsts[:0]
	for _, n := range g.Nodes {
		if n.Type != gene.Output {
			srcs = append(srcs, n.NodeID)
		}
		if n.Type != gene.Input {
			dsts = append(dsts, n.NodeID)
		}
	}
	s.srcs, s.dsts = srcs, dsts
	if len(srcs) == 0 || len(dsts) == 0 {
		return
	}
	// A few random probes rather than enumerating the O(V^2) candidate
	// set; dense genomes simply fail to add, as in neat-python.
	for attempt := 0; attempt < 8; attempt++ {
		src := srcs[r.Intn(len(srcs))]
		dst := dsts[r.Intn(len(dsts))]
		if src == dst || g.HasConn(src, dst) {
			continue
		}
		if m.cfg.FeedForwardOnly && cycleSearch(g, src, dst, s) {
			continue
		}
		c := gene.NewConn(src, dst, gene.ClampAttr(r.NormFloat64()*m.cfg.WeightInitPower))
		g.PutConn(c)
		m.ops[OpAddConn]++
		return
	}
}

// createsCycle reports whether adding edge src→dst would close a cycle,
// i.e. whether dst already reaches src through existing connections.
func createsCycle(g *gene.Genome, src, dst int32) bool {
	var s epochScratch
	return cycleSearch(g, src, dst, &s)
}

// cycleSearch is the depth-first reachability walk behind createsCycle.
// Instead of materializing an adjacency map per call, it exploits the
// (Src, Dst) sort invariant of g.Conns: a node's out-edges are one
// contiguous run, located by binary search. The visited set and DFS
// stack live in the caller's scratch.
func cycleSearch(g *gene.Genome, src, dst int32, s *epochScratch) bool {
	if src == dst {
		return true
	}
	if s.seen == nil {
		s.seen = make(map[int32]bool, len(g.Nodes))
	} else {
		clear(s.seen)
	}
	stack := append(s.stack[:0], dst)
	s.seen[dst] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == src {
			s.stack = stack
			return true
		}
		lo := sort.Search(len(g.Conns), func(i int) bool { return g.Conns[i].Src >= n })
		for i := lo; i < len(g.Conns) && g.Conns[i].Src == n; i++ {
			next := g.Conns[i].Dst
			if !s.seen[next] {
				s.seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	s.stack = stack
	return false
}
