package noc

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func cfg(kind Kind, pes int) Config {
	return Config{Kind: kind, NumPEs: pes, SRAMReadsPerCycle: 48, HopEnergyPJ: 0.15}
}

func TestP2PReadsScaleWithConsumers(t *testing.T) {
	streams := []Stream{{Genes: 100, Consumers: 8}}
	d := cfg(PointToPoint, 8).Distribute(streams)
	if d.SRAMReads != 800 {
		t.Fatalf("p2p reads %d, want 800", d.SRAMReads)
	}
	if d.Deliveries != 800 {
		t.Fatalf("p2p deliveries %d", d.Deliveries)
	}
}

func TestMulticastReadsOncePerStream(t *testing.T) {
	streams := []Stream{{Genes: 100, Consumers: 8}}
	d := cfg(MulticastTree, 8).Distribute(streams)
	if d.SRAMReads != 100 {
		t.Fatalf("multicast reads %d, want 100", d.SRAMReads)
	}
	if d.Deliveries != 800 {
		t.Fatalf("multicast deliveries %d", d.Deliveries)
	}
}

func TestMulticastReductionFactor(t *testing.T) {
	// 128 PEs all consuming the same hot parent: the paper's >100×
	// read reduction (Fig. 11b).
	streams := []Stream{{Genes: 1000, Consumers: 128}}
	p2p := cfg(PointToPoint, 128).Distribute(streams)
	mc := cfg(MulticastTree, 128).Distribute(streams)
	if p2p.SRAMReads/mc.SRAMReads < 100 {
		t.Fatalf("reduction only %d×", p2p.SRAMReads/mc.SRAMReads)
	}
}

func TestBandwidthStall(t *testing.T) {
	// 96 independent streams of one gene each at 48 reads/cycle need 2
	// cycles even though each stream is one cycle long.
	streams := make([]Stream, 96)
	for i := range streams {
		streams[i] = Stream{Genes: 1, Consumers: 1}
	}
	d := cfg(MulticastTree, 96).Distribute(streams)
	if d.Cycles != 2 {
		t.Fatalf("cycles %d, want 2 (bandwidth bound)", d.Cycles)
	}
}

func TestLockstepCycles(t *testing.T) {
	// One long stream dominates wave time when bandwidth suffices.
	streams := []Stream{
		{Genes: 500, Consumers: 1},
		{Genes: 10, Consumers: 1},
	}
	n := NewNetwork(cfg(MulticastTree, 2))
	d := n.Distribute(streams)
	if d.Cycles != 500 {
		t.Fatalf("cycles %d, want 500", d.Cycles)
	}
	if rpc := n.Counters().Snapshot().Float("reads_per_cycle"); rpc <= 1 || rpc > 2 {
		t.Fatalf("reads/cycle %v", rpc)
	}
}

func TestEmptyAndDegenerateStreams(t *testing.T) {
	d := cfg(MulticastTree, 4).Distribute(nil)
	if d.SRAMReads != 0 || d.Cycles != 0 || d.EnergyPJ != 0 {
		t.Fatalf("empty wave accounted %+v", d)
	}
	d = cfg(MulticastTree, 4).Distribute([]Stream{{Genes: 0, Consumers: 3}, {Genes: 5, Consumers: 0}})
	if d.SRAMReads != 0 {
		t.Fatalf("degenerate streams read %d", d.SRAMReads)
	}
}

func TestTreeEnergyHasLogHops(t *testing.T) {
	streams := []Stream{{Genes: 10, Consumers: 4}}
	bus := cfg(PointToPoint, 256).Distribute(streams)
	tree := cfg(MulticastTree, 256).Distribute(streams)
	// Same deliveries; tree pays log2(256)=8 hops each, bus pays 1.
	if tree.EnergyPJ <= bus.EnergyPJ/4 {
		t.Fatalf("tree hop energy implausible: tree %v vs bus %v", tree.EnergyPJ, bus.EnergyPJ)
	}
	if bus.EnergyPJ != 40*0.15 {
		t.Fatalf("bus energy %v", bus.EnergyPJ)
	}
}

func TestCollect(t *testing.T) {
	d := cfg(MulticastTree, 8).Collect(100)
	if d.Deliveries != 100 {
		t.Fatalf("collect deliveries %d", d.Deliveries)
	}
	if d.EnergyPJ <= 0 {
		t.Fatal("collect charged no energy")
	}
}

func TestKindString(t *testing.T) {
	if PointToPoint.String() != "point-to-point" || MulticastTree.String() != "multicast-tree" {
		t.Fatal("kind names wrong")
	}
}

// Property: for any wave, multicast never reads more than
// point-to-point, deliveries are identical across topologies, and
// reads never exceed deliveries.
func TestQuickTopologyConservation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		streams := make([]Stream, int(n%12)+1)
		for i := range streams {
			streams[i] = Stream{Genes: r.Intn(500), Consumers: r.Intn(8)}
		}
		p2p := cfg(PointToPoint, 64).Distribute(streams)
		mc := cfg(MulticastTree, 64).Distribute(streams)
		return mc.SRAMReads <= p2p.SRAMReads &&
			mc.Deliveries == p2p.Deliveries &&
			mc.SRAMReads <= mc.Deliveries &&
			p2p.SRAMReads <= p2p.Deliveries
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroBandwidthDefaults(t *testing.T) {
	c := Config{Kind: MulticastTree, NumPEs: 2, SRAMReadsPerCycle: 0}
	d := c.Distribute([]Stream{{Genes: 3, Consumers: 1}})
	if d.Cycles != 3 {
		t.Fatalf("cycles %d with defaulted bandwidth", d.Cycles)
	}
}
