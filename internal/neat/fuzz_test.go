package neat

import (
	"bytes"
	"testing"
)

// FuzzRestore pins the population decoder's two properties: Restore
// never panics, and it accepts only what Save writes, so whatever it
// accepts saves back to the identical bytes (Save(Restore(x)) == x).
func FuzzRestore(f *testing.F) {
	// Seed corpus: a real document of a small evolved population and
	// every rejection case derived from it.
	p := smallPopulation(f)
	f.Add(saved(f, p))
	for _, in := range rejectCases(f, p) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Restore(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if out := saved(t, q); !bytes.Equal(out, data) {
			t.Fatalf("accepted a %d-byte document that saves to %d other bytes", len(data), len(out))
		}
	})
}
