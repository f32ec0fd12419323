package gene

import "fmt"

// Word is the packed 64-bit hardware representation of a gene (Fig. 6).
// This is the unit that streams through the EvE interconnect, occupies
// the genome buffer SRAM, and determines the memory footprint figures.
//
// Bit layout (bit 63 is the MSB):
//
//	[63]      kind            0 = node gene, 1 = connection gene
//
// Node gene:
//
//	[62:61]   node type       00 hidden, 01 input, 10 output
//	[60:45]   node id         16-bit unsigned
//	[44:33]   bias            Q4.8 signed fixed point in [-8, 8)
//	[32:21]   response        Q4.8 signed fixed point in [-8, 8)
//	[20:17]   activation      4-bit function select
//	[16:13]   aggregation     4-bit function select
//	[12:0]    reserved
//
// Connection gene:
//
//	[62:47]   src node id     16-bit unsigned
//	[46:31]   dst node id     16-bit unsigned
//	[30:15]   weight          Q4.12 signed fixed point in [-8, 8)
//	[14]      enabled
//	[13:0]    reserved
type Word uint64

// WordBytes is the storage size of one packed gene; the paper's "64 bits
// to capture both types of genes".
const WordBytes = 8

// Fixed-point parameters for the packed attribute fields.
const (
	attrBits12 = 12 // node bias / response field width
	attrBits16 = 16 // connection weight field width
	// AttrLimit bounds the representable attribute magnitude; values are
	// clamped into [-AttrLimit, AttrLimit) when packed, mirroring the
	// "Limit & Quantize" block in the perturbation engine (Fig. 7).
	AttrLimit = 8.0
)

// ClampAttr bounds an attribute into [-AttrLimit, AttrLimit), the range
// the packed fields represent: the "Limit" half of the perturbation
// engine's "Limit & Quantize" block.
func ClampAttr(v float64) float64 {
	if v >= AttrLimit {
		return AttrLimit - 1.0/(1<<12)
	}
	if v < -AttrLimit {
		return -AttrLimit
	}
	return v
}

// MaxNodeID is the largest node id representable in the 16-bit id fields.
const MaxNodeID = 1<<16 - 1

// quantize converts v to an unsigned fixed-point field of the given width
// covering [-AttrLimit, AttrLimit).
func quantize(v float64, bits uint) uint64 {
	scale := float64(uint64(1)<<bits) / (2 * AttrLimit)
	if v >= AttrLimit {
		v = AttrLimit - 1/scale
	}
	if v < -AttrLimit {
		v = -AttrLimit
	}
	q := int64(v * scale)
	// Two's-complement into the field width.
	return uint64(q) & (1<<bits - 1)
}

// dequantize inverts quantize.
func dequantize(f uint64, bits uint) float64 {
	scale := float64(uint64(1)<<bits) / (2 * AttrLimit)
	// Sign-extend.
	v := int64(f << (64 - bits))
	v >>= 64 - bits
	return float64(v) / scale
}

// Quantize rounds v to the nearest value representable in the packed
// connection-weight field. The hardware stores quantized attributes, so
// the HW-path inference uses Quantize'd weights.
func Quantize(v float64) float64 {
	return dequantize(quantize(v, attrBits16), attrBits16)
}

// Pack encodes the node gene into its 64-bit hardware word, quantizing
// the real-valued attributes.
func (n Node) Pack() Word {
	var w uint64
	w |= uint64(n.Type&3) << 61
	w |= (uint64(n.NodeID) & 0xFFFF) << 45
	w |= quantize(n.Bias, attrBits12) << 33
	w |= quantize(n.Response, attrBits12) << 21
	w |= uint64(n.Activation&0xF) << 17
	w |= uint64(n.Aggregation&0xF) << 13
	return Word(w)
}

// Pack encodes the connection gene into its 64-bit hardware word,
// quantizing the weight.
func (c Conn) Pack() Word {
	var w uint64
	w |= 1 << 63
	w |= (uint64(c.Src) & 0xFFFF) << 47
	w |= (uint64(c.Dst) & 0xFFFF) << 31
	w |= quantize(c.Weight, attrBits16) << 15
	if c.Enabled {
		w |= 1 << 14
	}
	return Word(w)
}

// Node decodes a node-gene word (Kind() == KindNode). Attributes come
// back at quantized precision.
func (w Word) Node() Node {
	u := uint64(w)
	return Node{
		Type:        NodeType(u >> 61 & 3),
		NodeID:      int32(u >> 45 & 0xFFFF),
		Bias:        dequantize(u>>33&(1<<attrBits12-1), attrBits12),
		Response:    dequantize(u>>21&(1<<attrBits12-1), attrBits12),
		Activation:  Activation(u >> 17 & 0xF),
		Aggregation: Aggregation(u >> 13 & 0xF),
	}
}

// Conn decodes a connection-gene word (Kind() == KindConn). The weight
// comes back at quantized precision.
func (w Word) Conn() Conn {
	u := uint64(w)
	return Conn{
		Src:     int32(u >> 47 & 0xFFFF),
		Dst:     int32(u >> 31 & 0xFFFF),
		Weight:  dequantize(u>>15&(1<<attrBits16-1), attrBits16),
		Enabled: u>>14&1 == 1,
	}
}

// Kind reports the gene kind encoded in the word without a full unpack.
func (w Word) Kind() Kind {
	if uint64(w)>>63 == 0 {
		return KindNode
	}
	return KindConn
}

// String renders the word via its decoded gene.
func (w Word) String() string {
	if w.Kind() == KindNode {
		return fmt.Sprintf("%016x %s", uint64(w), w.Node())
	}
	return fmt.Sprintf("%016x %s", uint64(w), w.Conn())
}
