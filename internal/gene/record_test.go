package gene

import (
	"bytes"
	"math"
	"testing"
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
		b := record(t, g)
		d := NewDecoder(b)
		back := d.Genome()
		if err := d.End(); err != nil {
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

// FuzzRecord: the record decoder never panics, and whatever it accepts
// encodes back to the identical bytes.
func FuzzRecord(f *testing.F) {
	f.Add(record(f, NewGenome(1)))
	f.Add(record(f, smallGenome(f)))
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(record(f, randomGenome(seed, 5)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		g := d.Genome()
		if d.End() != nil {
			return
		}
		if out := record(t, g); !bytes.Equal(out, data) {
			t.Fatal("accepted a record that encodes to other bytes")
		}
	})
}
