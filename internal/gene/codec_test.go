package gene

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// sameGenes compares gene lists field by field, floats by bit pattern
// (so 0 and -0 differ).
func sameGenes(a, b []Gene) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x != y || math.Float64bits(x.Bias) != math.Float64bits(y.Bias) ||
			math.Float64bits(x.Response) != math.Float64bits(y.Response) ||
			math.Float64bits(x.Weight) != math.Float64bits(y.Weight) {
			return false
		}
	}
	return true
}

// sameGenome compares everything the codec carries.
func sameGenome(a, b *Genome) bool {
	return a.ID == b.ID && math.Float64bits(a.Fitness) == math.Float64bits(b.Fitness) &&
		sameGenes(a.Nodes, b.Nodes) && sameGenes(a.Conns, b.Conns)
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

// TestAppendJSONFloats pins the float formats at encoding/json's
// boundaries in every float slot of a genome, and the rejection of the
// values JSON cannot hold.
func TestAppendJSONFloats(t *testing.T) {
	slots := map[string]func(*Genome, float64){
		"fitness":  func(g *Genome, f float64) { g.Fitness = f },
		"bias":     func(g *Genome, f float64) { g.Nodes[1].Bias = f },
		"response": func(g *Genome, f float64) { g.Nodes[3].Response = f },
		"weight":   func(g *Genome, f float64) { g.Conns[2].Weight = f },
	}
	for _, tc := range []struct {
		f    float64
		text string // the value as it appears in the JSON; "" = no JSON form
	}{
		{0, "0"},
		{math.Copysign(0, -1), "-0"},
		{1e-7, "1e-7"},
		{-1e-7, "-1e-7"},
		{1e-6, "0.000001"},
		{9.99e20, "999000000000000000000"},
		{1e21, "1e+21"},
		{5e-324, "5e-324"},
		{math.MaxFloat64, "1.7976931348623157e+308"},
		{math.NaN(), ""},
		{math.Inf(1), ""},
		{math.Inf(-1), ""},
	} {
		for slot, set := range slots {
			g := smallGenome(t)
			set(g, tc.f)
			got, err := g.AppendJSON([]byte("x"))
			if tc.text == "" {
				if err == nil || string(got) != "x" {
					t.Errorf("%s=%v: got %q, %v; want an error and the buffer unextended", slot, tc.f, got, err)
				}
				if _, rerr := refMarshalJSON(g); rerr == nil {
					t.Errorf("%s=%v: the reference encoded it", slot, tc.f)
				}
				continue
			}
			want, rerr := refMarshalJSON(g)
			if err != nil || rerr != nil || !bytes.Equal(got[1:], want) {
				t.Errorf("%s=%v:\n got %s (%v)\nwant %s (%v)", slot, tc.f, got[1:], err, want, rerr)
				continue
			}
			if !bytes.Contains(got, []byte(`"`+slot+`":`+tc.text)) {
				t.Errorf("%s=%v: %s lacks %s", slot, tc.f, got, tc.text)
			}
			var back Genome
			if err := back.UnmarshalJSON(got[1:]); err != nil || !sameGenome(&back, g) {
				t.Errorf("%s=%v: round trip: %v", slot, tc.f, err)
			}
		}
	}
}

// TestUnmarshalMatchesReference decodes inputs that no encoder writes
// but both decoders accept, and requires the identical genome: genes
// out of order or repeated (the last one wins), keys in another order,
// absent numbers and flags, and whitespace.
func TestUnmarshalMatchesReference(t *testing.T) {
	const in = `{"id":0,"type":"input","activation":"sigmoid","aggregation":"sum"}`
	const out = `{"id":1,"type":"output","activation":"tanh","aggregation":"max","bias":0.5}`
	const hid = `{"aggregation":"min","activation":"relu","type":"hidden","response":2,"id":2}`
	for name, doc := range map[string]string{
		"nodes reversed": `{"id":1,"nodes":[` + hid + `,` + out + `,` + in + `]}`,
		"conns reversed": `{"id":1,"nodes":[` + in + `,` + out + `,` + hid + `],"conns":[` +
			`{"src":2,"dst":1,"weight":1},{"src":0,"dst":2,"weight":-1,"enabled":true},{"src":0,"dst":1}]}`,
		"repeated genes": `{"id":1,"nodes":[` + in + `,` + out + `,` + in + `],"conns":[` +
			`{"src":0,"dst":1,"weight":1},{"src":0,"dst":1,"weight":2,"enabled":true}]}`,
		"keys reordered": `{"conns":null,"nodes":[` + in + `],"fitness":3,"id":4}`,
		"whitespace":     " {\n\t\"id\" : 7 ,\r\n \"nodes\" : [ " + in + " ] , \"conns\" : [ ] } \n",
	} {
		var ref, got Genome
		if err := refUnmarshalJSON(&ref, []byte(doc)); err != nil {
			t.Fatalf("%s: the reference rejects it: %v", name, err)
		}
		if err := got.UnmarshalJSON([]byte(doc)); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !sameGenome(&got, &ref) {
			t.Errorf("%s: decoded %+v, the reference %+v", name, got, ref)
		}
	}
}

// TestUnmarshalStricterThanReference lists the inputs the reference
// decoder accepted that the one-pass decoder rejects.
func TestUnmarshalStricterThanReference(t *testing.T) {
	const node = `{"id":0,"type":"input","bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"}`
	for name, doc := range map[string]string{
		"unknown key":         `{"id":1,"color":"red","nodes":[` + node + `],"conns":null}`,
		"key in another case": `{"ID":1,"nodes":[` + node + `],"conns":null}`,
		"repeated key":        `{"id":1,"id":2,"nodes":[` + node + `],"conns":null}`,
		"repeated gene key":   `{"id":1,"nodes":[` + strings.Replace(node, `"bias":0`, `"bias":0,"bias":1`, 1) + `],"conns":null}`,
		"escaped string":      `{"id":1,"nodes":[` + strings.Replace(node, `"input"`, `"\u0069nput"`, 1) + `],"conns":null}`,
		"null number":         `{"id":null,"nodes":[` + node + `],"conns":null}`,
		"null gene":           `{"id":1,"nodes":[` + strings.Replace(node, `"input"`, `"hidden"`, 1) + `],"conns":[null]}`,
		"null genome":         `null`,
	} {
		var ref Genome
		if err := refUnmarshalJSON(&ref, []byte(doc)); err != nil {
			t.Errorf("%s: the reference rejects it too (%v); not a stricter case", name, err)
		}
		var g Genome
		if err := g.UnmarshalJSON([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzGenomeJSON pins the hand-written codec against the encoding/json
// reference: (a) for any genome the reference decodes, AppendJSON
// writes the reference encoder's bytes; (b) whatever the one-pass
// decoder accepts, the reference accepts too, with an identical
// genome; (c) everything AppendJSON or the indented Save writes
// decodes back to the same genome.
func FuzzGenomeJSON(f *testing.F) {
	genomes := []*Genome{NewGenome(3), smallGenome(f)}
	for seed := uint64(1); seed <= 12; seed++ {
		genomes = append(genomes, randomGenome(seed, int(seed)))
	}
	for _, g := range genomes {
		b, err := refMarshalJSON(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	var indented bytes.Buffer
	if err := randomGenome(9, 4).Save(&indented); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())
	f.Add([]byte(`{"id":2,"fitness":-0,"nodes":null,"conns":null}`))
	f.Add([]byte(`{"conns":[],"nodes":[{"aggregation":"max","activation":"tanh","type":"output","id":3},` +
		`{"id":1,"type":"input","activation":"relu","aggregation":"sum","bias":1E-7}],"fitness":1e21}`))
	f.Add([]byte(`{"id":1,"nodes":[{"id":1,"type":"input","activation":"abs","aggregation":"min"},` +
		`{"id":1,"type":"output","activation":"abs","aggregation":"min","bias":2}],` +
		`"conns":[{"src":1,"dst":1,"weight":0.5,"enabled":true},{"src":1,"dst":1,"weight":-1e-7}]}`))
	f.Add([]byte(`{"id":1,"nodes":[{"id":-1,"type":"hidden","activation":"sin","aggregation":"mean"}]}`))
	f.Add([]byte(`{"id":01}`))
	f.Add([]byte(`{"id":1.5}`))
	f.Add([]byte(`{"fitness":1e999}`))
	f.Add([]byte(`{"id":9223372036854775808}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref, got Genome
		refErr := refUnmarshalJSON(&ref, data)
		if err := got.UnmarshalJSON(data); err == nil {
			if refErr != nil {
				t.Fatalf("(b) accepted what the reference rejects: %v", refErr)
			}
			if !sameGenome(&got, &ref) {
				t.Fatalf("(b) decoded %+v, the reference %+v", got, ref)
			}
		}
		if refErr != nil {
			return
		}
		want, err := refMarshalJSON(&ref)
		if err != nil {
			t.Fatalf("reference encoder: %v", err)
		}
		enc, err := ref.AppendJSON(nil)
		if err != nil || !bytes.Equal(enc, want) {
			t.Fatalf("(a) AppendJSON = %s, %v; the reference wrote %s", enc, err, want)
		}
		var back Genome
		if err := back.UnmarshalJSON(enc); err != nil || !sameGenome(&back, &ref) {
			t.Fatalf("(c) AppendJSON output does not decode back: %v", err)
		}
		var ind bytes.Buffer
		if err := ref.Save(&ind); err != nil {
			t.Fatalf("(c) Save: %v", err)
		}
		if loaded, err := Load(&ind); err != nil || !sameGenome(loaded, &ref) {
			t.Fatalf("(c) Save output does not load back: %v", err)
		}
	})
}
