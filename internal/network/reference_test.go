package network

import (
	"fmt"
	"testing"

	"repro/internal/gene"
	"repro/internal/rng"
)

// referenceFeed is the pre-compile map-based evaluator, kept verbatim as
// the executable specification of the phenotype semantics: Kahn
// longest-path layering over enabled connections, per-vertex fan-in in
// genome (src, dst) connection order, products materialized and then
// aggregated. The compiled kernel must match it bit for bit — the
// determinism guardrail behind the byte-identical results/ files.
type refVertex struct {
	id   int32
	kind gene.NodeType
	bias float64
	resp float64
	act  gene.Activation
	agg  gene.Aggregation
	in   []refEdge
}

type refEdge struct {
	pos    int
	weight float64
}

type refNet struct {
	order   []refVertex
	inputs  []int
	outputs []int
	layers  [][]int
	values  []float64
}

func newRefNet(g *gene.Genome) (*refNet, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	depth := make(map[int32]int, len(g.Nodes))
	indeg := make(map[int32]int, len(g.Nodes))
	adj := make(map[int32][]int32)
	for _, c := range g.Conns {
		if !c.Enabled {
			continue
		}
		adj[c.Src] = append(adj[c.Src], c.Dst)
		indeg[c.Dst]++
	}
	var queue []int32
	for _, n := range g.Nodes {
		if indeg[n.NodeID] == 0 {
			queue = append(queue, n.NodeID)
			depth[n.NodeID] = 0
		}
	}
	processed := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		processed++
		for _, next := range adj[id] {
			if d := depth[id] + 1; d > depth[next] {
				depth[next] = d
			}
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if processed != len(g.Nodes) {
		return nil, fmt.Errorf("reference: genome %d has a cycle", g.ID)
	}
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	n := &refNet{}
	index := make(map[int32]int, len(g.Nodes))
	byDepth := make([][]gene.Node, maxDepth+1)
	for _, ng := range g.Nodes {
		d := depth[ng.NodeID]
		byDepth[d] = append(byDepth[d], ng)
	}
	for _, level := range byDepth {
		for _, ng := range level {
			index[ng.NodeID] = len(n.order)
			n.order = append(n.order, refVertex{
				id: ng.NodeID, kind: ng.Type,
				bias: ng.Bias, resp: ng.Response,
				act: ng.Activation, agg: ng.Aggregation,
			})
		}
	}
	for _, c := range g.Conns {
		if !c.Enabled {
			continue
		}
		dst := &n.order[index[c.Dst]]
		dst.in = append(dst.in, refEdge{pos: index[c.Src], weight: c.Weight})
	}
	for _, id := range g.InputIDs() {
		n.inputs = append(n.inputs, index[id])
	}
	for _, id := range g.OutputIDs() {
		n.outputs = append(n.outputs, index[id])
	}
	for d := 1; d <= maxDepth; d++ {
		var layer []int
		for _, ng := range byDepth[d] {
			layer = append(layer, index[ng.NodeID])
		}
		if len(layer) > 0 {
			n.layers = append(n.layers, layer)
		}
	}
	var orphan []int
	for _, ng := range byDepth[0] {
		if ng.Type != gene.Input {
			orphan = append(orphan, index[ng.NodeID])
		}
	}
	if len(orphan) > 0 {
		n.layers = append([][]int{orphan}, n.layers...)
	}
	n.values = make([]float64, len(n.order))
	return n, nil
}

func (n *refNet) feed(obs []float64) []float64 {
	for i, pos := range n.inputs {
		n.values[pos] = obs[i]
	}
	var acc []float64
	for _, layer := range n.layers {
		for _, pos := range layer {
			v := &n.order[pos]
			acc = acc[:0]
			for _, e := range v.in {
				acc = append(acc, n.values[e.pos]*e.weight)
			}
			pre := v.bias + v.resp*Aggregate(v.agg, acc)
			n.values[pos] = Activate(v.act, pre)
		}
	}
	out := make([]float64, len(n.outputs))
	for i, pos := range n.outputs {
		out[i] = n.values[pos]
	}
	return out
}

// TestCompiledMatchesReferenceExactly drives randomly evolved genomes
// (hidden nodes, disabled connections, orphan vertices, irregular
// fan-in) through both evaluators and requires exact float64 equality —
// not approximate — on every output of every observation.
func TestCompiledMatchesReferenceExactly(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 8; trial++ {
		inputs := 2 + int(r.Intn(6))
		outputs := 1 + int(r.Intn(3))
		g := evolvedGenome(t, inputs, outputs, 24, 6, uint64(100+trial))
		ref, err := newRefNet(g)
		if err != nil {
			t.Fatalf("trial %d: reference build: %v", trial, err)
		}
		net, err := New(g)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		if net.NumVertices() != len(ref.order) || net.NumInputs() != len(ref.inputs) ||
			net.NumOutputs() != len(ref.outputs) {
			t.Fatalf("trial %d: shape mismatch: compiled %d/%d/%d vs reference %d/%d/%d",
				trial, net.NumVertices(), net.NumInputs(), net.NumOutputs(),
				len(ref.order), len(ref.inputs), len(ref.outputs))
		}
		obs := make([]float64, inputs)
		for step := 0; step < 50; step++ {
			for i := range obs {
				obs[i] = r.Range(-3, 3)
			}
			want := ref.feed(obs)
			got, err := net.Feed(obs)
			if err != nil {
				t.Fatalf("trial %d: feed: %v", trial, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d step %d output %d: compiled %v != reference %v (genome %d)",
						trial, step, i, got[i], want[i], g.ID)
				}
			}
			// Per-vertex activations must agree too, not just outputs.
			vals := net.Values()
			for _, v := range ref.order {
				if vals[v.id] != ref.values[refIndex(ref, v.id)] {
					t.Fatalf("trial %d step %d: vertex %d activation mismatch", trial, step, v.id)
				}
			}
		}
	}
}

// TestCompiledPlacement pins the compiled layout on randomly evolved
// genomes: the inputs at the first positions and the outputs at the
// last, each in id order, so a batch's observation and action planes
// are fixed rows of its state; and a schedule whose layers hold the
// reference's vertices in the reference's order, so the placement
// moves no vertex to another layer and changes no sum order, Plan
// stage or result.
func TestCompiledPlacement(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 8; trial++ {
		g := evolvedGenome(t, 2+int(r.Intn(6)), 1+int(r.Intn(3)), 24, 6, uint64(300+trial))
		ref, err := newRefNet(g)
		if err != nil {
			t.Fatal(err)
		}
		net, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		p := net.prog
		in, out := g.InputIDs(), g.OutputIDs()
		if got := p.ids[:len(in)]; fmt.Sprint(got) != fmt.Sprint(in) {
			t.Fatalf("trial %d: first positions hold %v, want the inputs %v", trial, got, in)
		}
		if got := p.ids[len(p.ids)-len(out):]; fmt.Sprint(got) != fmt.Sprint(out) {
			t.Fatalf("trial %d: last positions hold %v, want the outputs %v", trial, got, out)
		}
		var got, want [][]int32
		start := int32(0)
		for _, end := range p.layerEnd {
			var layer []int32
			for _, pos := range p.evalPos[start:end] {
				layer = append(layer, p.ids[pos])
			}
			got = append(got, layer)
			start = end
		}
		for _, layer := range ref.layers {
			var ids []int32
			for _, pos := range layer {
				ids = append(ids, ref.order[pos].id)
			}
			want = append(want, ids)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: schedule layers %v, want the reference's %v", trial, got, want)
		}
	}
}

func refIndex(n *refNet, id int32) int {
	for i, v := range n.order {
		if v.id == id {
			return i
		}
	}
	return -1
}

// TestFeedSteadyStateZeroAlloc pins the compiled kernel's allocation
// contract: after instantiation, Feed and FeedInto perform zero heap
// allocations per call — the property the persistent evaluation pool
// depends on.
func TestFeedSteadyStateZeroAlloc(t *testing.T) {
	g := evolvedGenome(t, 6, 3, 48, 10, 11)
	net, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, net.NumInputs())
	dst := make([]float64, net.NumOutputs())
	for i := range obs {
		obs[i] = float64(i) * 0.25
	}
	if _, err := net.Feed(obs); err != nil { // warm up
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := net.FeedInto(dst, obs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("FeedInto allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := net.Feed(obs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Feed allocates %.1f times per call, want 0", n)
	}
}

// TestFeedReusesOutputBuffer documents the Feed contract: the returned
// slice is the instance's buffer, overwritten by the next call.
func TestFeedReusesOutputBuffer(t *testing.T) {
	n, err := New(xorGenome())
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.Feed([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Feed([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("Feed returned distinct buffers; contract says it reuses one")
	}
}
