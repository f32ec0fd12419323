package gene

import (
	"encoding/json"
	"fmt"
)

// The encoding/json genome codec the hand-written one replaced, kept
// as the reference the differential tests and FuzzGenomeJSON pin it
// against. refMarshalJSON and refUnmarshalJSON are the former
// MarshalJSON and UnmarshalJSON bodies. referenceValidate is the former
// Validate body, which FuzzValidate pins the one-pass Validate against.

// jsonNode is the serialized form of a node gene.
type jsonNode struct {
	ID          int32   `json:"id"`
	Type        string  `json:"type"`
	Bias        float64 `json:"bias"`
	Response    float64 `json:"response"`
	Activation  string  `json:"activation"`
	Aggregation string  `json:"aggregation"`
}

// jsonConn is the serialized form of a connection gene.
type jsonConn struct {
	Src     int32   `json:"src"`
	Dst     int32   `json:"dst"`
	Weight  float64 `json:"weight"`
	Enabled bool    `json:"enabled"`
}

// jsonGenome is the serialized genome.
type jsonGenome struct {
	ID      int64      `json:"id"`
	Fitness float64    `json:"fitness"`
	Nodes   []jsonNode `json:"nodes"`
	Conns   []jsonConn `json:"conns"`
}

// refNodeTypeNames maps between NodeType and its serialized name.
var refNodeTypeNames = map[NodeType]string{Hidden: "hidden", Input: "input", Output: "output"}

func nodeTypeFromName(s string) (NodeType, error) {
	for t, n := range refNodeTypeNames {
		if n == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("gene: unknown node type %q", s)
}

func activationFromName(s string) (Activation, error) {
	for a := Activation(0); int(a) < NumActivations; a++ {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("gene: unknown activation %q", s)
}

func aggregationFromName(s string) (Aggregation, error) {
	for a := Aggregation(0); int(a) < NumAggregations; a++ {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("gene: unknown aggregation %q", s)
}

// refMarshalJSON is the reference encoder.
func refMarshalJSON(g *Genome) ([]byte, error) {
	jg := jsonGenome{ID: g.ID, Fitness: g.Fitness}
	for _, n := range g.Nodes {
		jg.Nodes = append(jg.Nodes, jsonNode{
			ID: n.NodeID, Type: refNodeTypeNames[n.Type],
			Bias: n.Bias, Response: n.Response,
			Activation: n.Activation.String(), Aggregation: n.Aggregation.String(),
		})
	}
	for _, c := range g.Conns {
		jg.Conns = append(jg.Conns, jsonConn{
			Src: c.Src, Dst: c.Dst, Weight: c.Weight, Enabled: c.Enabled,
		})
	}
	return json.Marshal(jg)
}

// refUnmarshalJSON is the reference decoder.
func refUnmarshalJSON(g *Genome, data []byte) error {
	var jg jsonGenome
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("gene: %w", err)
	}
	out := Genome{ID: jg.ID, Fitness: jg.Fitness}
	for _, n := range jg.Nodes {
		t, err := nodeTypeFromName(n.Type)
		if err != nil {
			return err
		}
		act, err := activationFromName(n.Activation)
		if err != nil {
			return err
		}
		agg, err := aggregationFromName(n.Aggregation)
		if err != nil {
			return err
		}
		out.PutNode(Gene{
			Kind: KindNode, NodeID: n.ID, Type: t,
			Bias: n.Bias, Response: n.Response, Activation: act, Aggregation: agg,
		})
	}
	for _, c := range jg.Conns {
		out.PutConn(Gene{
			Kind: KindConn, Src: c.Src, Dst: c.Dst, Weight: c.Weight, Enabled: c.Enabled,
		})
	}
	if err := referenceValidate(&out); err != nil {
		return err
	}
	*g = out
	return nil
}

// referenceValidate checks Validate's invariants with three binary
// searches per connection gene.
func referenceValidate(g *Genome) error {
	for i, n := range g.Nodes {
		if n.Kind != KindNode {
			return fmt.Errorf("genome %d: non-node gene in node cluster at %d", g.ID, i)
		}
		if n.NodeID < 0 || n.NodeID > MaxNodeID {
			return fmt.Errorf("genome %d: node id %d outside hardware range", g.ID, n.NodeID)
		}
		if i > 0 && g.Nodes[i-1].NodeID >= n.NodeID {
			return fmt.Errorf("genome %d: node cluster unsorted at %d", g.ID, i)
		}
	}
	for i, c := range g.Conns {
		if c.Kind != KindConn {
			return fmt.Errorf("genome %d: non-conn gene in conn cluster at %d", g.ID, i)
		}
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
