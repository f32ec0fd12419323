package gene

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary genome record is the one serialized form of a genome:
// population checkpoints and stored runs, island champions and
// migrants, Pareto fronts and the controllers cmd/genesys saves all
// hold genomes as records. Unlike the hardware word (Pack) it keeps
// every attribute at full precision: a float64 is its raw IEEE-754
// bits, so each value round-trips bit for bit, -0 and subnormals
// included. Integers are little-endian, and a record is
//
//	id i64, fitness f64,
//	u32 node count, then per node gene (23 bytes):
//	    id i32, type u8, activation u8, aggregation u8, bias f64, response f64
//	u32 connection count, then per connection gene (17 bytes):
//	    src i32, dst i32, weight f64, enabled u8
//
// with both clusters in their sorted order. Every float is finite: a
// NaN fitness has no place in the order selection and the Pareto sort
// rank by, and a non-finite bias, response or weight makes every
// activation downstream of it non-finite, so a record holding one can
// only be corrupt, and it is refused before it reaches a population.

// Record sizes: a genome record with no genes, one node gene and one
// connection gene.
const (
	MinRecordSize  = 8 + 8 + 4 + 4
	nodeRecordSize = 4 + 3 + 8 + 8
	connRecordSize = 4 + 4 + 8 + 1
)

var le = binary.LittleEndian

// RecordSize returns the length of the genome's binary record.
func (g *Genome) RecordSize() int {
	return MinRecordSize + nodeRecordSize*len(g.Nodes) + connRecordSize*len(g.Conns)
}

// AppendRecord appends the genome's binary record to b and returns the
// extended buffer. It fails on a NaN or infinite attribute.
func (g *Genome) AppendRecord(b []byte) ([]byte, error) {
	b = le.AppendUint64(b, uint64(g.ID))
	b = le.AppendUint64(b, math.Float64bits(g.Fitness))
	ok := finite(g.Fitness)
	b = le.AppendUint32(b, uint32(len(g.Nodes)))
	for _, n := range g.Nodes {
		b = le.AppendUint32(b, uint32(n.NodeID))
		b = append(b, byte(n.Type), byte(n.Activation), byte(n.Aggregation))
		b = le.AppendUint64(b, math.Float64bits(n.Bias))
		b = le.AppendUint64(b, math.Float64bits(n.Response))
		ok = ok && finite(n.Bias) && finite(n.Response)
	}
	b = le.AppendUint32(b, uint32(len(g.Conns)))
	for _, c := range g.Conns {
		b = le.AppendUint32(b, uint32(c.Src))
		b = le.AppendUint32(b, uint32(c.Dst))
		b = le.AppendUint64(b, math.Float64bits(c.Weight))
		b = AppendFlag(b, c.Enabled)
		ok = ok && finite(c.Weight)
	}
	if !ok {
		return nil, fmt.Errorf("gene: genome %d has a NaN or infinite attribute", g.ID)
	}
	return b, nil
}

// DecodeRecord decodes a genome from b, which must hold exactly one
// record, and validates it.
func DecodeRecord(b []byte) (*Genome, error) {
	d := NewDecoder(b)
	g := d.Genome()
	if err := d.End(); err != nil {
		return nil, err
	}
	return g, nil
}

// AppendFloat appends f's IEEE-754 bits. NaN and ±Inf fail and leave b
// unextended.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if !finite(f) {
		return b, fmt.Errorf("gene: %v is not a finite float", f)
	}
	return le.AppendUint64(b, math.Float64bits(f)), nil
}

// AppendFlag appends v as a 0 or 1 byte.
func AppendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// finite reports whether f is neither NaN nor infinite: its exponent
// bits are not all ones.
func finite(f float64) bool { return math.Float64bits(f)&(0x7FF<<52) != 0x7FF<<52 }

// Decoder reads a binary document that embeds genome records. Every
// read is bounds-checked, and the first failure sticks: later reads
// return nil or zero values and End reports it, so a caller reads a
// whole document and checks once. It never copies data it hands out
// with Bytes.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a Decoder at the start of data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// fail records a failure unless one is already recorded.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("gene: offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// Bytes returns the next n bytes, or nil once the decoder has failed.
func (d *Decoder) Bytes(n int) []byte {
	if d.err == nil && n > len(d.data)-d.off {
		d.fail("want %d bytes, have %d", n, len(d.data)-d.off)
	}
	if d.err != nil {
		return nil
	}
	d.off += n
	return d.data[d.off-n : d.off]
}

// zeros stands in for a fixed-width value once the decoder has failed.
var zeros [8]byte

// word returns the next n ≤ 8 bytes, or zeros once the decoder has
// failed.
func (d *Decoder) word(n int) []byte {
	if b := d.Bytes(n); b != nil {
		return b
	}
	return zeros[:n]
}

// Uint32 reads a u32.
func (d *Decoder) Uint32() uint32 { return le.Uint32(d.word(4)) }

// Int64 reads an i64.
func (d *Decoder) Int64() int64 { return int64(le.Uint64(d.word(8))) }

// Int reads an i64 that must fit an int.
func (d *Decoder) Int() int {
	v := d.Int64()
	if int64(int(v)) != v {
		d.fail("%d overflows an int", v)
	}
	return int(v)
}

// Float reads a float64, which must be finite.
func (d *Decoder) Float() float64 { return d.float(uint64(d.Int64())) }

// float converts IEEE-754 bits, failing on NaN or ±Inf.
func (d *Decoder) float(bits uint64) float64 {
	f := math.Float64frombits(bits)
	if !finite(f) {
		d.fail("%v is not a finite float", f)
	}
	return f
}

// Flag reads a flag byte, which must be 0 or 1.
func (d *Decoder) Flag() bool {
	b := d.word(1)[0]
	if b > 1 {
		d.fail("flag byte %d", b)
	}
	return b == 1
}

// Count reads a u32 list length and checks that that many items of at
// least size bytes each fit in the bytes left, so a hostile count fails
// before the caller allocates for it.
func (d *Decoder) Count(size int) int {
	n := d.Uint32()
	if left := len(d.data) - d.off; uint64(n)*uint64(size) > uint64(left) {
		d.fail("%d items of %d bytes overrun the %d bytes left", n, size, left)
		return 0
	}
	return int(n)
}

// Genome reads a genome record and validates it. On any failure it
// returns nil.
func (d *Decoder) Genome() *Genome {
	g := &Genome{ID: d.Int64(), Fitness: d.Float()}
	if n := d.Count(nodeRecordSize); n > 0 {
		b := d.Bytes(n * nodeRecordSize)
		g.Nodes = make([]Node, n)
		for i := range g.Nodes {
			r := b[i*nodeRecordSize : (i+1)*nodeRecordSize]
			if r[4] > byte(Output) || int(r[5]) >= NumActivations || int(r[6]) >= NumAggregations {
				d.fail("node %d: type %d, activation %d, aggregation %d", i, r[4], r[5], r[6])
			}
			g.Nodes[i] = Node{NodeID: int32(le.Uint32(r)),
				Type: NodeType(r[4]), Activation: Activation(r[5]), Aggregation: Aggregation(r[6]),
				Bias: d.float(le.Uint64(r[7:])), Response: d.float(le.Uint64(r[15:]))}
		}
	}
	if n := d.Count(connRecordSize); n > 0 {
		b := d.Bytes(n * connRecordSize)
		g.Conns = make([]Conn, n)
		for i := range g.Conns {
			r := b[i*connRecordSize : (i+1)*connRecordSize]
			if r[16] > 1 {
				d.fail("conn %d: enabled byte %d", i, r[16])
			}
			g.Conns[i] = Conn{Src: int32(le.Uint32(r)), Dst: int32(le.Uint32(r[4:])),
				Weight: d.float(le.Uint64(r[8:])), Enabled: r[16] == 1}
		}
	}
	if d.err == nil {
		if d.err = g.Validate(); d.err == nil {
			return g
		}
	}
	return nil
}

// End checks that the document was read whole, and returns the first
// failure if there was one.
func (d *Decoder) End() error {
	if d.err == nil && d.off != len(d.data) {
		d.fail("%d bytes after the document", len(d.data)-d.off)
	}
	return d.err
}
