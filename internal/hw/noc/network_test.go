package noc

import (
	"math"
	"testing"
)

func TestHops(t *testing.T) {
	cases := []struct {
		kind Kind
		pes  int
		want float64
	}{
		// A bus is one hop regardless of fan-out.
		{PointToPoint, 1, 1},
		{PointToPoint, 2, 1},
		{PointToPoint, 256, 1},
		// Tiny trees degenerate to a single link.
		{MulticastTree, 1, 1},
		{MulticastTree, 2, 1},
		// Larger trees traverse log2(NumPEs) levels.
		{MulticastTree, 4, 2},
		{MulticastTree, 8, 3},
		{MulticastTree, 256, 8},
	}
	for _, c := range cases {
		got := Config{Kind: c.kind, NumPEs: c.pes}.hops()
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("hops(%v, %d PEs) = %v, want %v", c.kind, c.pes, got, c.want)
		}
	}
}

func TestDistributeSinglePE(t *testing.T) {
	// With one PE there is no reuse to exploit: both topologies read and
	// deliver the same gene count at one hop.
	streams := []Stream{{Genes: 50, Consumers: 1}}
	p2p := cfg(PointToPoint, 1).Distribute(streams)
	mc := cfg(MulticastTree, 1).Distribute(streams)
	if p2p.SRAMReads != 50 || mc.SRAMReads != 50 {
		t.Fatalf("single-PE reads p2p=%d mc=%d, want 50", p2p.SRAMReads, mc.SRAMReads)
	}
	if p2p.Deliveries != mc.Deliveries || p2p.EnergyPJ != mc.EnergyPJ {
		t.Fatalf("single-PE topologies diverged: %+v vs %+v", p2p, mc)
	}
}

func TestDistributeZeroStreams(t *testing.T) {
	for _, kind := range []Kind{PointToPoint, MulticastTree} {
		n := NewNetwork(cfg(kind, 16))
		d := n.Distribute([]Stream{})
		if d.SRAMReads != 0 || d.Deliveries != 0 || d.Cycles != 0 ||
			n.Counters().Snapshot().Float("reads_per_cycle") != 0 || d.EnergyPJ != 0 {
			t.Fatalf("%v zero-stream wave accounted %+v", kind, d)
		}
	}
}

func TestCollectEdges(t *testing.T) {
	if d := cfg(MulticastTree, 8).Collect(0); d.Deliveries != 0 || d.EnergyPJ != 0 {
		t.Fatalf("zero-gene collect accounted %+v", d)
	}
	// Collection pays the same per-topology hop count as distribution:
	// the tree path back to the merge block is log2(NumPEs) deep.
	bus := cfg(PointToPoint, 256).Collect(10)
	tree := cfg(MulticastTree, 256).Collect(10)
	if bus.EnergyPJ != 10*0.15 {
		t.Fatalf("bus collect energy %v, want 1.5", bus.EnergyPJ)
	}
	if want := 10 * 0.15 * 8; math.Abs(tree.EnergyPJ-want) > 1e-9 {
		t.Fatalf("tree collect energy %v, want %v", tree.EnergyPJ, want)
	}
}

func TestNetworkChargesRegistry(t *testing.T) {
	n := NewNetwork(cfg(MulticastTree, 8))
	d1 := n.Distribute([]Stream{{Genes: 100, Consumers: 8}})
	d2 := n.Collect(40)
	rep := n.Counters().Snapshot()
	if got := rep.Int("sram_reads"); got != d1.SRAMReads {
		t.Fatalf("registry sram_reads %d, want %d", got, d1.SRAMReads)
	}
	if got := rep.Int("deliveries"); got != d1.Deliveries+d2.Deliveries {
		t.Fatalf("registry deliveries %d, want %d", got, d1.Deliveries+d2.Deliveries)
	}
	if got := rep.Float("energy_pj"); got != d1.EnergyPJ+d2.EnergyPJ {
		t.Fatalf("registry energy %v, want %v", got, d1.EnergyPJ+d2.EnergyPJ)
	}
	if got, want := rep.Float("reads_per_cycle"),
		float64(d1.SRAMReads)/float64(d1.Cycles); got != want {
		t.Fatalf("registry reads_per_cycle %v, want %v", got, want)
	}
	n.Reset()
	if rep := n.Counters().Snapshot(); rep.Int("sram_reads") != 0 || rep.Float("energy_pj") != 0 {
		t.Fatalf("reset left charges behind: %+v", rep)
	}
}
