package gene

import (
	"encoding/json"
	"fmt"
)

// The encoding/json genome codec the hand-written one replaced, kept
// as the reference the differential tests and FuzzGenomeJSON pin it
// against. refMarshalJSON and refUnmarshalJSON are the former
// MarshalJSON and UnmarshalJSON bodies.

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
	if err := out.Validate(); err != nil {
		return err
	}
	*g = out
	return nil
}
