package gene

import "fmt"

// The former Validate body, kept as the reference FuzzValidate pins
// the one-pass Validate against.

// referenceValidate checks Validate's invariants with three binary
// searches per connection gene.
func referenceValidate(g *Genome) error {
	for i, n := range g.Nodes {
		if n.NodeID < 0 || n.NodeID > MaxNodeID {
			return fmt.Errorf("genome %d: node id %d outside hardware range", g.ID, n.NodeID)
		}
		if i > 0 && g.Nodes[i-1].NodeID >= n.NodeID {
			return fmt.Errorf("genome %d: node cluster unsorted at %d", g.ID, i)
		}
	}
	for i, c := range g.Conns {
		if i > 0 {
			p := g.Conns[i-1]
			if p.Src > c.Src || (p.Src == c.Src && p.Dst >= c.Dst) {
				return fmt.Errorf("genome %d: conn cluster unsorted at %d", g.ID, i)
			}
		}
		if !g.HasNode(c.Src) {
			return fmt.Errorf("genome %d: conn %d->%d has dangling source", g.ID, c.Src, c.Dst)
		}
		if !g.HasNode(c.Dst) {
			return fmt.Errorf("genome %d: conn %d->%d has dangling destination", g.ID, c.Src, c.Dst)
		}
		dst, _ := g.Node(c.Dst)
		if dst.Type == Input {
			return fmt.Errorf("genome %d: conn %d->%d terminates at input node", g.ID, c.Src, c.Dst)
		}
	}
	return nil
}
