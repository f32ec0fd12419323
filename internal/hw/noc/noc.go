// Package noc models the EvE interconnect: the network that distributes
// parent genes from the gene-split block to the PEs and collects child
// genes into the gene-merge block (Section IV-C4).
//
// Two design options from the paper:
//
//   - PointToPoint: separate high-bandwidth buses, one stream per PE —
//     every PE's parent genes are read from the SRAM independently, so
//     SRAM reads grow with active PE count;
//   - MulticastTree: a tree with multicast support — one SRAM read of a
//     parent gene serves every PE consuming that parent in the same
//     wave, exploiting genome-level reuse (Fig. 11b shows >100× read
//     reduction).
package noc

import "math"

// Kind selects the interconnect topology.
type Kind int

// NoC topologies.
const (
	PointToPoint Kind = iota
	MulticastTree
)

// String names the topology.
func (k Kind) String() string {
	if k == MulticastTree {
		return "multicast-tree"
	}
	return "point-to-point"
}

// Config parameterizes the interconnect model.
type Config struct {
	Kind Kind
	// NumPEs is the number of leaf PEs the network serves.
	NumPEs int
	// SRAMReadsPerCycle is the read bandwidth the genome buffer offers
	// (banks × ports); the distribution network stalls beyond it.
	SRAMReadsPerCycle int
	// HopEnergyPJ is the energy of moving one 64-bit gene one hop.
	HopEnergyPJ float64
}

// Stream is one parent genome being distributed during a wave.
type Stream struct {
	// Genes is the stream length (the parent's gene count).
	Genes int
	// Consumers is the number of PEs consuming this stream in the wave.
	Consumers int
}

// Delivery is the accounting result of distributing one wave.
type Delivery struct {
	// SRAMReads is the number of genome-buffer word reads required.
	SRAMReads int64
	// Deliveries is the number of gene deliveries to PEs (reads ×
	// fan-out for multicast; equal to reads for point-to-point).
	Deliveries int64
	// Cycles is the distribution time: streams advance one gene per
	// cycle, stalling if the SRAM read bandwidth is exceeded.
	Cycles int64
	// EnergyPJ is the interconnect traversal energy.
	EnergyPJ float64
}

// hops returns the per-delivery hop count of the topology: a bus is a
// single hop; a tree traverses log2(NumPEs) levels.
func (c Config) hops() float64 {
	if c.Kind == PointToPoint || c.NumPEs <= 2 {
		return 1
	}
	return math.Log2(float64(c.NumPEs))
}

// Distribute accounts one wave of parent-gene distribution.
//
// Under PointToPoint every consumer's copy of every gene is a separate
// SRAM read. Under MulticastTree each stream is read once and forked in
// the network. In both cases child-gene collection is handled by
// Collect.
func (c Config) Distribute(streams []Stream) Delivery {
	var d Delivery
	longest := 0
	for _, s := range streams {
		if s.Genes <= 0 || s.Consumers <= 0 {
			continue
		}
		reads := int64(s.Genes)
		if c.Kind == PointToPoint {
			reads = int64(s.Genes) * int64(s.Consumers)
		}
		d.SRAMReads += reads
		d.Deliveries += int64(s.Genes) * int64(s.Consumers)
		if s.Genes > longest {
			longest = s.Genes
		}
	}
	// Streams advance in lockstep: the wave needs at least the longest
	// stream, and at least enough cycles to issue all reads at the SRAM
	// bandwidth.
	bw := int64(c.SRAMReadsPerCycle)
	if bw <= 0 {
		bw = 1
	}
	minByBW := (d.SRAMReads + bw - 1) / bw
	d.Cycles = int64(longest)
	if minByBW > d.Cycles {
		d.Cycles = minByBW
	}
	d.EnergyPJ = float64(d.Deliveries) * c.HopEnergyPJ * c.hops()
	return d
}

// Collect accounts child-gene collection from the PEs into the gene
// merge block: one delivery (and eventually one SRAM write, charged by
// the caller) per produced gene, for either topology.
func (c Config) Collect(childGenes int64) Delivery {
	var d Delivery
	d.Deliveries = childGenes
	d.EnergyPJ = float64(childGenes) * c.HopEnergyPJ * c.hops()
	return d
}
