package gene

import (
	"bytes"
	"strings"
	"testing"
)

func TestGenomeJSONRoundTrip(t *testing.T) {
	g := smallGenome(t)
	g.Fitness = 42.5
	n, _ := g.Node(5)
	n.Activation = ActReLU
	n.Aggregation = AggMax
	n.Bias = 1.5
	g.PutNode(n)
	c, _ := g.Conn(0, 2)
	c.Enabled = false
	g.PutConn(c)

	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != g.ID || back.Fitness != 42.5 {
		t.Fatalf("header mangled: %+v", back)
	}
	if back.NumGenes() != g.NumGenes() {
		t.Fatalf("gene count %d vs %d", back.NumGenes(), g.NumGenes())
	}
	bn, _ := back.Node(5)
	if bn.Activation != ActReLU || bn.Aggregation != AggMax || bn.Bias != 1.5 {
		t.Fatalf("node attributes lost: %v", bn)
	}
	bc, _ := back.Conn(0, 2)
	if bc.Enabled {
		t.Fatal("enabled flag lost")
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"garbage":        `{`,
		"bad node type":  `{"id":1,"nodes":[{"id":0,"type":"ghost"}]}`,
		"bad activation": `{"id":1,"nodes":[{"id":0,"type":"input","activation":"magic","aggregation":"sum"}]}`,
		"dangling conn":  `{"id":1,"nodes":[{"id":0,"type":"input","activation":"sigmoid","aggregation":"sum"}],"conns":[{"src":0,"dst":9,"weight":1,"enabled":true}]}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestJSONIsHumanReadable(t *testing.T) {
	g := smallGenome(t)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{`"type": "input"`, `"activation": "sigmoid"`, `"src"`} {
		if !strings.Contains(doc, want) {
			t.Fatalf("serialized form missing %q:\n%s", want, doc)
		}
	}
}
