package gene

import (
	"strings"
	"testing"
)

// String methods are part of the debugging surface; verify they carry
// the distinguishing information, not just that they run.
func TestStringRepresentations(t *testing.T) {
	if KindNode.String() != "node" || KindConn.String() != "conn" {
		t.Fatal("kind names wrong")
	}
	for tp, want := range map[NodeType]string{Hidden: "hidden", Input: "input", Output: "output"} {
		if tp.String() != want {
			t.Fatalf("NodeType(%d) = %q", tp, tp.String())
		}
	}
	if NodeType(7).String() == "" {
		t.Fatal("unknown node type renders empty")
	}
	if Activation(15).String() == "" || Aggregation(15).String() == "" {
		t.Fatal("unknown function selects render empty")
	}

	n := NewNode(3, Hidden)
	n.Bias = 0.5
	s := n.String()
	if !strings.Contains(s, "node(3") || !strings.Contains(s, "0.500") {
		t.Fatalf("node string %q", s)
	}
	c := NewConn(1, 2, -0.25)
	if !strings.Contains(c.String(), "1->2") || !strings.Contains(c.String(), "on") {
		t.Fatalf("conn string %q", c.String())
	}
	c.Enabled = false
	if !strings.Contains(c.String(), "off") {
		t.Fatalf("disabled conn string %q", c.String())
	}

	g := NewGenome(9)
	g.Fitness = 1.25
	g.PutNode(n)
	gs := g.String()
	if !strings.Contains(gs, "id=9") || !strings.Contains(gs, "nodes=1") {
		t.Fatalf("genome string %q", gs)
	}

	if ws := c.Pack().String(); !strings.Contains(ws, "conn(1->2") {
		t.Fatalf("word string %q", ws)
	}
	if ws := n.Pack().String(); !strings.Contains(ws, "node(3") {
		t.Fatalf("word string %q", ws)
	}
}

func TestValidateCatchesClusterMixups(t *testing.T) {
	// Forge an unsorted node cluster.
	h := NewGenome(2)
	h.Nodes = []Node{NewNode(5, Hidden), NewNode(3, Hidden)}
	if err := h.Validate(); err == nil {
		t.Fatal("unsorted node cluster accepted")
	}
	// Forge an out-of-range node id.
	k := NewGenome(3)
	k.Nodes = []Node{{NodeID: -1}}
	if err := k.Validate(); err == nil {
		t.Fatal("negative node id accepted")
	}
}
