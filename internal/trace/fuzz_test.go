package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse hardens the trace reader against malformed input: Parse
// must never panic, anything it accepts the fmt.Sscanf reference
// accepts as the same trace, and that trace re-serializes and re-parses
// to itself.
func FuzzParse(f *testing.F) {
	f.Add("G 0 100\nP 1 50\nP 2 50\nC 10 1 2 50 10 1 1 0 0\n")
	f.Add("G 3 0\n")
	f.Add("")
	f.Add("X nonsense\n")
	f.Add("C 1 2 3 4\n")
	f.Add("G 0 1\nC 10 1 -1 5 0 0 0 0 0\n")
	f.Add("G 1 2junk\n")
	f.Add("G 1 2 3\n")
	f.Add("G 0 1\nP 1 2 3\n")
	f.Add("\tG\t+1  -0\r\n\n  \nP 1 2\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		ref, err := referenceParse(strings.NewReader(input))
		if err != nil {
			t.Fatalf("accepted what the reference rejects: %v", err)
		}
		if !reflect.DeepEqual(tr, ref) {
			t.Fatalf("parsed %+v, reference %+v", tr, ref)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace: %+v vs %+v", back, tr)
		}
	})
}
