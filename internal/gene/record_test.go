package gene

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// record returns g's binary record.
func record(tb testing.TB, g *Genome) []byte {
	tb.Helper()
	b, err := g.AppendRecord(nil)
	if err != nil {
		tb.Fatal(err)
	}
	if len(b) != g.RecordSize() {
		tb.Fatalf("record is %d bytes, RecordSize says %d", len(b), g.RecordSize())
	}
	return b
}

// sameBits compares floats by bit pattern (so 0 and -0 differ).
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// sameGenome compares everything the record carries, gene by gene and
// field by field.
func sameGenome(a, b *Genome) bool {
	return a.ID == b.ID && sameBits(a.Fitness, b.Fitness) &&
		slices.EqualFunc(a.Nodes, b.Nodes, func(x, y Node) bool {
			return x == y && sameBits(x.Bias, y.Bias) && sameBits(x.Response, y.Response)
		}) &&
		slices.EqualFunc(a.Conns, b.Conns, func(x, y Conn) bool { return x == y && sameBits(x.Weight, y.Weight) })
}

// randomGenome builds a valid genome with every node type, activation
// and aggregation and attribute magnitudes across the float formats.
func randomGenome(seed uint64, nodes int) *Genome {
	r := rng.New(seed)
	g := NewGenome(int64(r.Intn(1 << 30)))
	g.Fitness = r.NormFloat64() * 1e3
	scale := []float64{1, 1e-9, 1e25, 1e-3, 1e6}
	for id := 0; id < nodes; id++ {
		n := NewNode(int32(id), NodeType(id%3))
		n.Bias = r.NormFloat64() * scale[id%len(scale)]
		n.Response = r.NormFloat64()
		n.Activation = Activation(r.Intn(NumActivations))
		n.Aggregation = Aggregation(r.Intn(NumAggregations))
		g.PutNode(n)
	}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if NodeType(dst%3) != Input && r.Float64() < 0.3 {
				c := NewConn(int32(src), int32(dst), r.NormFloat64()*scale[dst%len(scale)])
				c.Enabled = r.Float64() < 0.8
				g.PutConn(c)
			}
		}
	}
	return g
}

// TestRecordRoundTrip: a genome decodes from its record bit for bit,
// with -0, subnormals and the extremes of float64 in every float slot,
// and a NaN or infinite attribute fails to encode.
func TestRecordRoundTrip(t *testing.T) {
	genomes := []*Genome{NewGenome(3), smallGenome(t)}
	for seed := uint64(1); seed <= 6; seed++ {
		genomes = append(genomes, randomGenome(seed, int(seed)*3))
	}
	for _, f := range []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64} {
		g := smallGenome(t)
		g.Fitness, g.Nodes[1].Bias, g.Nodes[2].Response, g.Conns[0].Weight = f, f, f, f
		genomes = append(genomes, g)
	}
	for _, g := range genomes {
		back, err := DecodeRecord(record(t, g))
		if err != nil {
			t.Fatalf("genome %d: %v", g.ID, err)
		}
		if !sameGenome(back, g) {
			t.Fatalf("genome %d decodes differently", g.ID)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 4; i++ {
			g := smallGenome(t)
			*[]*float64{&g.Fitness, &g.Nodes[0].Bias, &g.Nodes[0].Response, &g.Conns[0].Weight}[i] = f
			if b, err := g.AppendRecord(nil); err == nil || b != nil {
				t.Errorf("float slot %d = %v: err %v, %d bytes", i, f, err, len(b))
			}
		}
	}
}

// FuzzRecord: DecodeRecord never panics, and whatever it accepts
// encodes back to the identical bytes.
func FuzzRecord(f *testing.F) {
	f.Add(record(f, NewGenome(1)))
	f.Add(record(f, smallGenome(f)))
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(record(f, randomGenome(seed, 5)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeRecord(data)
		if err != nil {
			if g != nil {
				t.Fatal("a rejected record returned a genome")
			}
			return
		}
		if out := record(t, g); !bytes.Equal(out, data) {
			t.Fatal("accepted a record that encodes to other bytes")
		}
	})
}
