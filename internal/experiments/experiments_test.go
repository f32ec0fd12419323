package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// quickOpt keeps experiment tests fast; the bench harness runs larger
// settings.
func quickOpt() Options {
	return Options{
		Seed:           7,
		Runs:           1,
		MaxGenerations: 6,
		Population:     30,
		RAMPopulation:  12,
		RAMGenerations: 2,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig10ab", "fig10c", "fig10d", "fig11a", "fig11b", "fig11c",
		"fig2", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b",
		"fig8a", "fig8b", "fig8c", "fig9a", "fig9b", "fig9c", "fig9d",
		"footnote1", "pareto", "resilience", "table1", "table2", "table3",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry: %v, want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", quickOpt()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFitnessFiguresIncludeCharts(t *testing.T) {
	r, err := Run("fig2", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "gen ") {
		t.Fatalf("fig2 output missing the ASCII chart:\n%s", out)
	}
}

func TestRenderAll(t *testing.T) {
	// Everything renders without error and produces non-trivial text.
	opt := quickOpt()
	for _, id := range []string{"table1", "table3", "fig8a", "fig8b", "fig8c"} {
		r, err := Run(id, opt)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := r.Render(&buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() < 50 {
			t.Fatalf("%s rendered only %d bytes", id, buf.Len())
		}
		if !strings.Contains(buf.String(), r.ID) {
			t.Fatalf("%s: header missing", id)
		}
	}
}

// fullWriter is a device that fills up: writes past its room fail
// with a short count.
type fullWriter struct{ room int }

func (w *fullWriter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		n := w.room
		w.room = 0
		return n, errors.New("no space left on device")
	}
	w.room -= len(p)
	return len(p), nil
}

// TestRenderReportsWriteError pins that a figure whose text does not
// fit reports the failed write: the device takes the header line, then
// fails the writes that follow it.
func TestRenderReportsWriteError(t *testing.T) {
	r := &Result{ID: "fig0", Title: "t", Tables: []Table{{Header: []string{"a"}, Rows: [][]string{{"1"}}}}}
	if err := r.Render(&fullWriter{room: len("== fig0: t ==\n")}); err == nil {
		t.Fatal("Render returned nil after a failed write")
	}
}
