package network

import (
	"testing"

	"repro/internal/gene"
)

// getNet fetches g's program through c and instantiates it, as the
// evaluator's per-episode jobs do.
func getNet(c *Cache, b *Builder, g *gene.Genome) (*Network, error) {
	pr, err := c.GetProgram(b, g)
	if err != nil {
		return nil, err
	}
	return pr.Instantiate(), nil
}

func TestCacheHitOnClone(t *testing.T) {
	g := xorGenome()
	var c Cache
	var b Builder

	n1, err := getNet(&c, &b, g)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("after first fetch: hits=%d misses=%d, want 0/1", h, m)
	}

	// A clone carries the parent's version stamp — the genome-level
	// reuse case (elite copied into the next generation).
	clone := g.Clone()
	clone.ID = 999
	n2, err := getNet(&c, &b, clone)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("after clone fetch: hits=%d misses=%d, want 1/1", h, m)
	}
	if n1.prog != n2.prog {
		t.Fatal("clone did not share the cached program")
	}
	if &n1.values[0] == &n2.values[0] || &n1.out[0] == &n2.out[0] {
		t.Fatal("instances share evaluation buffers; concurrent evaluation would race")
	}

	// Shared program, independent state: feeding one instance must not
	// disturb the other's outputs.
	a, err := n1.Feed([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := a[0]
	if _, err := n2.Feed([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if n1.out[0] != want {
		t.Fatal("feeding the clone's instance overwrote the original's output buffer")
	}
}

func TestCacheMissAfterMutation(t *testing.T) {
	g := xorGenome()
	var c Cache
	var b Builder
	if _, err := getNet(&c, &b, g); err != nil {
		t.Fatal(err)
	}

	// Any gene edit bumps the version stamp, so the stale phenotype can
	// never be served.
	mutated := g.Clone()
	cn := mutated.Conns[0]
	cn.Weight += 1
	mutated.PutConn(cn)
	if mutated.Version() == g.Version() {
		t.Fatal("mutation did not bump the version stamp")
	}
	if _, err := getNet(&c, &b, mutated); err != nil {
		t.Fatal(err)
	}
	if h, m := c.Stats(); h != 0 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", h, m)
	}

	// The two compiled phenotypes must actually differ.
	n1, _ := getNet(&c, &b, g)
	n2, _ := getNet(&c, &b, mutated)
	o1, err := n1.Feed([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := n2.Feed([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if o1[0] == o2[0] {
		t.Fatal("mutated genome produced identical output; stale phenotype suspected")
	}
}

func TestCacheSweepEvictsUntouched(t *testing.T) {
	g1, g2 := xorGenome(), xorGenome()
	g2.ID = 2
	var c Cache
	var b Builder
	if _, err := getNet(&c, &b, g1); err != nil {
		t.Fatal(err)
	}
	if _, err := getNet(&c, &b, g2); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len=%d, want 2", c.Len())
	}

	c.Sweep() // clears marks; both entries survive one sweep
	if c.Len() != 2 {
		t.Fatalf("after first sweep Len=%d, want 2", c.Len())
	}

	if _, err := getNet(&c, &b, g1); err != nil { // touch only g1
		t.Fatal(err)
	}
	c.Sweep()
	if c.Len() != 1 {
		t.Fatalf("after second sweep Len=%d, want 1 (g2 evicted)", c.Len())
	}
	if _, err := getNet(&c, &b, g1); err != nil {
		t.Fatal(err)
	}
	if h, _ := c.Stats(); h != 2 {
		t.Fatalf("g1 should still hit after surviving the sweep (hits=%d)", h)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	// A cyclic genome fails compilation; the failure must not poison the
	// cache or be memoized.
	g := gene.NewGenome(1)
	g.PutNode(gene.NewNode(0, gene.Input))
	out := gene.NewNode(1, gene.Output)
	g.PutNode(out)
	h := gene.NewNode(2, gene.Hidden)
	g.PutNode(h)
	g.PutConn(gene.NewConn(2, 1, 1))
	g.PutConn(gene.NewConn(1, 2, 1)) // cycle 1→2→1

	var c Cache
	var b Builder
	if _, err := getNet(&c, &b, g); err == nil {
		t.Fatal("cyclic genome compiled")
	}
	if c.Len() != 0 {
		t.Fatalf("failed compile left %d cache entries", c.Len())
	}
}
