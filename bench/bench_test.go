package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets an untraced run start this test binary as its host probe.
func TestMain(m *testing.M) {
	probeMain()
	os.Exit(m.Run())
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// compares two untraced records, so a broken benchmark fails here.
func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	runAll := func(traced bool) *record {
		rec := newRecord(1, 1, traced)
		for _, w := range workloads {
			res, err := runWorkload(ctx, w, options{seed: 1, seconds: 1, traced: traced, toy: true})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if len(res.errors) > 0 || res.failed > 0 || res.attempted == 0 {
				t.Fatalf("%s (traced %v): %d of %d jobs failed, checks: %q", w.name, traced, res.failed, res.attempted, res.errors)
			}
			want := endToEnd
			if traced {
				want = perLayer
				if len(res.spans) == 0 {
					t.Fatalf("%s: traced run recorded no spans", w.name)
				}
				if err := writeSpans(filepath.Join(t.TempDir(), "spans.jsonl"), res.spans); err != nil {
					t.Fatal(err)
				}
			}
			if len(res.metrics) != len(want) {
				t.Fatalf("%s: %d metrics, want %d", w.name, len(res.metrics), len(want))
			}
			for _, m := range res.metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || !traced && m.Value <= 0 {
					t.Errorf("%s: %s = %v", w.name, m.Name, m.Value)
				}
			}
			rec.add(res)
		}
		return rec
	}
	a, b := runAll(false), runAll(false)
	runAll(true)

	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	rowsPerWorkload := len(bf.EndToEnd) + 1 // and failed_frac
	rows, _ := compareRecords(bf.EndToEnd, a, b)
	if got, want := strings.Count(rows, "\n"), 1+len(workloads)*rowsPerWorkload; got != want {
		t.Fatalf("compare printed %d lines, want %d:\n%s", got, want, rows)
	}
	if strings.Contains(rows, "missing") || strings.Contains(rows, "incorrect") {
		t.Fatalf("compare found missing metrics or incorrect runs:\n%s", rows)
	}
	self, failing := compareRecords(bf.EndToEnd, a, a)
	if failing != 0 || strings.Count(self, " same\n") != len(workloads)*rowsPerWorkload {
		t.Fatalf("a record compared with itself is not the same everywhere:\n%s", self)
	}
}

// TestCompareFailures checks that a change whose runs are incorrect,
// fail more jobs, lack a metric or lack the workload fails the
// comparison, whatever its timings.
func TestCompareFailures(t *testing.T) {
	b := bound{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.1}
	runs := func(correct bool, failed int, metrics bool) *record {
		rec := newRecord(1, 1, false)
		for i := 0; i < 10; i++ {
			res := result{workload: "w", attempted: 100, failed: failed}
			if !correct {
				res.errors = []string{"stream differs"}
			}
			if metrics {
				res.metrics = []metric{{Name: b.Name, Unit: b.Unit, Value: 100 + float64(i%3), N: 100}}
			}
			rec.add(res)
		}
		return rec
	}
	parent := runs(true, 0, true)
	for _, tc := range []struct {
		name   string
		change *record
		want   string
	}{
		{"incorrect", runs(false, 0, true), "incorrect"},
		{"more jobs failed", runs(true, 1, true), "worse"},
		{"metric missing", runs(true, 0, false), "missing"},
		{"workload missing", newRecord(1, 1, false), "missing"},
	} {
		rows, failing := compareRecords([]bound{b}, parent, tc.change)
		if failing == 0 || !strings.Contains(rows, " "+tc.want+"\n") {
			t.Errorf("%s: %d failing rows, want a %s row:\n%s", tc.name, failing, tc.want, rows)
		}
	}
	if rows, failing := compareRecords([]bound{b}, parent, runs(true, 0, true)); failing != 0 {
		t.Errorf("an identical change fails:\n%s", rows)
	}
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the workloads and
// metric definitions the command implements.
func TestBenchmarkFileMatches(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the command %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := bf.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the command %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := bf.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the command %+v", i, got, d)
		}
	}
}

func TestVerdict(t *testing.T) {
	ten := func(v float64, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = v + step*float64(i%5)
		}
		return xs
	}
	higher := bound{Name: "jobs_per_s", Better: "higher", Bound: 0.1}
	lower := bound{Name: "latency_p50_s", Better: "lower", Bound: 0.1}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		b              bound
		want           string
	}{
		{"identical", ten(100, 1), ten(100, 1), higher, "same"},
		{"gain beyond spread", ten(100, 1), ten(110, 1), higher, "better"},
		{"lower is better", ten(1, 0.01), ten(0.8, 0.01), lower, "better"},
		{"loss beyond bound", ten(100, 1), ten(85, 1), higher, "worse"},
		{"small loss", ten(100, 1), ten(95, 1), higher, "same"},
		{"too few pairs to claim", []float64{100, 101}, []float64{110, 111}, higher, "same"},
		{"spread wider than bound", ten(100, 10), ten(90, 10), higher, "unresolved"},
		// Beating every parent run resolves a wide spread as not worse, but
		// two pairs are too few to claim a gain.
		{"every change run better", []float64{100, 200}, []float64{300, 310}, higher, "same"},
		{"every change run better, ten pairs", ten(100, 10), ten(200, 10), higher, "better"},
	} {
		if got, _, _ := verdict(tc.parent, tc.change, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{"t", "job", "", 0, 100, nil},
		{"t", "serve.queue", "job", 10, 30, nil},
		{"t", "serve.run", "job", 30, 80, nil},
		{"t", "serve.first_record", "job", 0, 50, nil}, // overlaps both
		{"u", "job", "", 0, 10, nil},
	}
	got := selfTimes(spans)
	// t/job: children cover 0..80, so 20 ns of self time; u/job has 10.
	if want := 30e-9; abs(got["job"]-want) > 1e-12 {
		t.Errorf("job self time %v, want %v", got["job"], want)
	}
	if want := 50e-9; abs(got["serve.run"]-want) > 1e-12 {
		t.Errorf("serve.run self time %v, want %v", got["serve.run"], want)
	}
}
