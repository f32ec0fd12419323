package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
)

// recordSchema stamps -out records.
const recordSchema = "genesys-bench-run/1"

// record is the -out file: every sample of every metric of every
// workload, in run order.
type record struct {
	Schema    string            `json:"schema"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads []*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name      string             `json:"name"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]*series `json:"metrics"`
}

// series is one metric over a set of runs.
type series struct {
	Unit string `json:"unit"`
	// N is the number of samples behind each run's value.
	N      []int     `json:"n"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func newRecord(seed uint64, seconds int, traced bool) *record {
	return &record{Schema: recordSchema, Seed: seed, Seconds: seconds, Traced: traced}
}

// find returns the named workload's runs, or nil.
func (r *record) find(name string) *workloadRecord {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// workload returns the named workload's runs, adding it if needed.
func (r *record) workload(name string) *workloadRecord {
	if w := r.find(name); w != nil {
		return w
	}
	w := &workloadRecord{Name: name, Correct: true, Metrics: map[string]*series{}}
	r.Workloads = append(r.Workloads, w)
	return w
}

// add appends one run's result.
func (r *record) add(res result) {
	one := &workloadRecord{Name: res.workload, Correct: len(res.errors) == 0, Attempted: res.attempted,
		Failed: res.failed, Errors: res.errors, Metrics: map[string]*series{}}
	for _, m := range res.metrics {
		one.Metrics[m.Name] = &series{Unit: m.Unit, N: []int{m.N}, Values: []float64{m.Value}}
	}
	r.merge(&record{Workloads: []*workloadRecord{one}})
}

// merge appends every run of another record.
func (r *record) merge(o *record) {
	for _, ow := range o.Workloads {
		w := r.workload(ow.Name)
		w.Correct = w.Correct && ow.Correct
		w.Attempted += ow.Attempted
		w.Failed += ow.Failed
		w.Errors = append(w.Errors, ow.Errors...)
		for name, src := range ow.Metrics {
			s := w.Metrics[name]
			if s == nil {
				s = &series{Unit: src.Unit}
				w.Metrics[name] = s
			}
			s.N = append(s.N, src.N...)
			s.Values = append(s.Values, src.Values...)
		}
	}
	r.summarize()
}

// summarize recomputes every series' median and quartiles.
func (r *record) summarize() {
	for _, w := range r.Workloads {
		for _, s := range w.Metrics {
			s.Q1, s.Median, s.Q3 = quantile(s.Values, 0.25), quantile(s.Values, 0.5), quantile(s.Values, 0.75)
		}
	}
}

// save adds the record's runs to the record file at path, creating the
// file if it does not exist, so runs made one at a time (alternating
// with another commit's) build up one record.
func (r *record) save(path string) error {
	if old, err := readRecord(path); err == nil {
		if old.Seconds != r.Seconds || old.Traced != r.Traced {
			return fmt.Errorf("%s holds runs with -seconds %d and traced %v", path, old.Seconds, old.Traced)
		}
		old.merge(r)
		r = old
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != recordSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, recordSchema)
	}
	return &r, nil
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// minPairs is the fewest alternating parent/change run pairs a gain
// claim rests on.
const minPairs = 10

// verdict judges one workload × metric of a change against its parent:
//
//   - better: the change wins at least nine tenths of at least minPairs
//     pairs (ties count for neither side) and the medians differ by more
//     than the parent's interquartile range;
//   - unresolved: otherwise, when the parent's interquartile range is
//     wider than the bound, unless every change run beats every parent
//     run, which shows the change is not worse (same) but claims no gain;
//   - worse: the change's median is worse than the parent's by more than
//     the bound, as a share of the parent's median;
//   - same: anything else.
func verdict(parent, change []float64, b bound) (string, int, int) {
	sign := 1.0
	if b.Better == "lower" {
		sign = -1
	}
	pairs, wins := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	median := quantile(parent, 0.5)
	iqr := quantile(parent, 0.75) - quantile(parent, 0.25)
	gain := sign * (quantile(change, 0.5) - median)
	base := b.Bound * abs(median)
	switch {
	case pairs >= minPairs && wins*10 >= pairs*9 && gain > iqr:
		return "better", wins, pairs
	case iqr > base:
		if len(parent) > 0 && len(change) > 0 && sign*(worst(change, sign)-best(parent, sign)) > 0 {
			return "same", wins, pairs
		}
		return "unresolved", wins, pairs
	case -gain > base:
		return "worse", wins, pairs
	}
	return "same", wins, pairs
}

// best and worst pick a sample's extreme in the metric's direction.
func best(xs []float64, sign float64) float64 {
	v := xs[0]
	for _, x := range xs {
		if sign*(x-v) > 0 {
			v = x
		}
	}
	return v
}

func worst(xs []float64, sign float64) float64 { return best(xs, -sign) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareFiles prints one row per workload × end-to-end metric and
// fails when any row fails.
func compareFiles(benchmarkPath, parentPath, changePath string) error {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	parent, err := readRecord(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecord(changePath)
	if err != nil {
		return err
	}
	rows, failing := compareRecords(bf.EndToEnd, parent, change)
	fmt.Print(rows)
	if failing > 0 {
		return fmt.Errorf("%d workload × metric rows fail (worse, missing or incorrect)", failing)
	}
	return nil
}

// compareRecords renders the comparison table and counts failing rows.
// Each workload gets one row per end-to-end metric, judged by verdict,
// and a failed_frac row: the share of jobs that did not reach done.
// A row fails when it is worse, when either side lacks the metric or the
// workload, or when the change's runs failed a correctness check or
// failed a larger share of their jobs than the parent's; a gain does not
// count when more operations fail.
func compareRecords(bounds []bound, parent, change *record) (string, int) {
	var sb strings.Builder
	failing := 0
	row := func(workload, metric, p, c, delta, wins, v string) {
		switch v {
		case "worse", "missing", "incorrect":
			failing++
		}
		fmt.Fprintf(&sb, "%-14s %-14s %14s %14s %8s %6s  %s\n", workload, metric, p, c, delta, wins, v)
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	row("workload", "metric", "parent", "change", "delta", "wins", "verdict")
	for _, pw := range parent.Workloads {
		cw := change.find(pw.Name)
		if cw == nil {
			cw = &workloadRecord{Name: pw.Name}
		}
		for _, b := range bounds {
			ps, cs := pw.Metrics[b.Name], cw.Metrics[b.Name]
			if ps == nil || cs == nil {
				row(pw.Name, b.Name, "-", "-", "-", "-", "missing")
				continue
			}
			v, wins, pairs := verdict(ps.Values, cs.Values, b)
			row(pw.Name, b.Name, num(ps.Median), num(cs.Median),
				fmt.Sprintf("%+.1f%%", 100*ratio(cs.Median-ps.Median, abs(ps.Median))), fmt.Sprintf("%d/%d", wins, pairs), v)
		}
		pf, cf := ratio(float64(pw.Failed), float64(pw.Attempted)), ratio(float64(cw.Failed), float64(cw.Attempted))
		v := "same"
		switch {
		case cw.Attempted == 0:
			v = "missing"
		case !cw.Correct:
			v = "incorrect"
		case cf > pf:
			v = "worse"
		}
		row(pw.Name, "failed_frac", num(pf), num(cf), "-", "-", v)
	}
	return sb.String(), failing
}
