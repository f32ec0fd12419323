package neat

import (
	"bytes"
	"testing"
)

// FuzzRestore pins the one-pass checkpoint decoder against the
// encoding/json reference: Restore must never panic; whatever it
// accepts, the reference accepts too, and both populations save to
// the same bytes; and whatever Save writes restores through both
// decoders to a population that saves the same bytes again.
func FuzzRestore(f *testing.F) {
	// Seed corpus: a real checkpoint from a small evolved population,
	// the inputs only the reference accepts, and structured garbage
	// near the rejection boundaries.
	cfg := DefaultConfig(2, 1)
	cfg.PopulationSize = 8
	p, err := NewPopulation(cfg, 1)
	if err != nil {
		f.Fatal(err)
	}
	for gen := 0; gen < 2; gen++ {
		for i, g := range p.Genomes {
			g.Fitness = float64(i)
		}
		if _, err := p.Epoch(); err != nil {
			f.Fatal(err)
		}
	}
	doc := saved(f, p)
	f.Add(doc)
	for _, in := range strictCases(doc) {
		f.Add(in)
	}
	f.Add([]byte("{"))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"config":{"PopulationSize":10},"genomes":[]}`))
	f.Add([]byte(`{"config":{"PopulationSize":10,"NumInputs":2,"NumOutputs":1,` +
		`"InitialConnection":"full","CompatThreshold":3,"SurvivalThreshold":0.2,` +
		`"TournamentSize":3},"genomes":[{"id":1,"nodes":[],"conns":[]}],` +
		`"rng":{"x":0,"y":0,"z":0,"w":0,"v":0,"d":0}}`))
	restorers := map[string]func([]byte, uint64) (*Population, error){
		"Restore": Restore, "reference": referenceRestore,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Restore(data, 7)
		if err != nil {
			return // rejection is fine; panics are not
		}
		ref, err := referenceRestore(data, 7)
		if err != nil {
			t.Fatalf("accepted what the reference rejects: %v", err)
		}
		out := saved(t, q)
		if !bytes.Equal(out, saved(t, ref)) {
			t.Fatal("restored populations save differently")
		}
		for name, restore := range restorers {
			back, err := restore(out, 8)
			if err != nil {
				t.Fatalf("%s: re-saved checkpoint failed to restore: %v", name, err)
			}
			if !bytes.Equal(saved(t, back), out) {
				t.Fatalf("%s: re-saved checkpoint saves differently", name)
			}
		}
	})
}
