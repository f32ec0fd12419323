// Command bench is the repository's end-to-end benchmark. It starts an
// in-process genesysd built with the same serve.Config cmd/genesysd
// builds from its defaults (plus a run store and checkpoint directory in
// a fresh temp dir), drives it over loopback HTTP through serve.Client
// with one closed-loop client per CPU, checks every job's record stream,
// and reports the end-to-end metrics of one workload. With -trace 1 it
// instead reports the per-layer breakdown of a traced re-run.
//
// Run it from the repository root; bench/run.sh builds it first:
//
//	bash bench/run.sh -workload control -seed 1 -seconds 16 -trace 0
//	bash bench/run.sh -workload replay -trace 1 -spans spans.jsonl
//	bash bench/run.sh -runs 10 -out change.json   # every workload, seeds 1..10
//	bash bench/run.sh -compare parent.json change.json
//
// A single-workload run prints one "name value unit n=<samples>" line
// per metric and, as its last line, a JSON object with the keys
// correct, attempted, failed and metrics. It exits 1 when a
// correctness check fails. -workload all and -runs N re-execute this
// binary once per workload and run, so peak RSS, the process-global run
// cache and GC state never carry over between them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runBudget caps one single-workload run, which must end within 180 s:
// a run that cannot finish inside it should fail, not hang.
const runBudget = 170 * time.Second

func main() {
	probeMain()
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Uint64("seed", 1, "workload seed; -runs N uses seeds seed..seed+N-1")
		seconds  = flag.Int("seconds", 16, "nominal measuring time; sets each workload's fixed job count")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics instead of end-to-end ones")
		spans    = flag.String("spans", "", "with -trace 1, write the trace's spans here as JSON lines")
		runs     = flag.Int("runs", 1, "runs per workload, each in its own process")
		out      = flag.String("out", "", "add every sample of every metric to this JSON record file")
		compare  = flag.Bool("compare", false, "compare two -out records: bench -compare parent.json change.json")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *spans, *runs, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, spans string, runs int, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two record files, got %d", len(args))
		}
		return compareFiles("BENCHMARK.json", args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if seconds < 1 || runs < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds >= 1, -runs >= 1 and -trace 0 or 1")
	}
	names := workloadNames()
	if workload != "all" {
		if _, ok := workloadByName(workload); !ok {
			return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(names, ", "))
		}
		names = []string{workload}
	}
	if len(names) > 1 || runs > 1 {
		return runChildren(names, seed, seconds, trace, spans, runs, out)
	}
	w, _ := workloadByName(workload)
	return runOne(w, seed, seconds, trace == 1, spans, out)
}

// runOne runs one workload in this process and prints its result.
func runOne(w workload, seed uint64, seconds int, traced bool, spansPath, out string) error {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	res, err := runWorkload(ctx, w, options{seed: seed, seconds: seconds, traced: traced})
	if err != nil {
		return err
	}
	if spansPath != "" && traced {
		if err := writeSpans(spansPath, res.spans); err != nil {
			return err
		}
	}
	rec := newRecord(seed, seconds, traced)
	rec.add(res)
	for _, e := range res.errors {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", w.name, e)
	}
	for _, m := range res.metrics {
		fmt.Printf("%s %s %s n=%d\n", m.Name, formatValue(m.Value), m.Unit, m.N)
	}
	// Failures are normally zero, so failed_frac is printed but left out
	// of the metrics a comparison bounds; the result line's failed count
	// carries it.
	fmt.Printf("failed_frac %s ratio n=%d\n", formatValue(ratio(float64(res.failed), float64(res.attempted))), res.attempted)
	if !traced {
		// The times above are scaled by this; multiply them by it (divide
		// the rates) for the wall-clock values.
		fmt.Printf("host_slowdown %s ratio n=%d\n", formatValue(res.hostSlowdown.value), res.hostSlowdown.n)
	}
	if out != "" {
		if err := rec.save(out); err != nil {
			return err
		}
	}
	if err := printResultLine(len(res.errors) == 0, res.attempted, res.failed, res.metrics); err != nil {
		return err
	}
	if len(res.errors) > 0 {
		return fmt.Errorf("%s: %d correctness checks failed", w.name, len(res.errors))
	}
	return nil
}

// runChildren re-executes this binary once per (run, workload) — runs
// outermost, so consecutive runs of one workload are spread out in
// time — and merges the children's records.
func runChildren(names []string, seed uint64, seconds, trace int, spansPath string, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "genesys-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	rec := newRecord(seed, seconds, trace == 1)
	var spanParts []string
	for r := 0; r < runs; r++ {
		for _, name := range names {
			s := seed + uint64(r)
			part := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", name, r))
			args := []string{"-workload", name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", part}
			if spansPath != "" && trace == 1 {
				sp := part + ".spans"
				args = append(args, "-spans", sp)
				spanParts = append(spanParts, sp)
			}
			cmd := exec.Command(exe, args...)
			// The children's own result lines would interleave with this
			// process's summary; they go to stderr for the log.
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			fmt.Fprintf(os.Stderr, "bench: run %d/%d %s seed %d\n", r+1, runs, name, s)
			runErr := cmd.Run()
			child, err := readRecord(part)
			if err != nil {
				return fmt.Errorf("%s seed %d: %v (exit: %v)", name, s, err, runErr)
			}
			rec.merge(child)
		}
	}
	if spansPath != "" && trace == 1 {
		if err := concatFiles(spansPath, spanParts); err != nil {
			return err
		}
	}

	correct, attempted, failed := true, 0, 0
	var flat []metric
	for _, wr := range rec.Workloads {
		correct = correct && wr.Correct
		attempted += wr.Attempted
		failed += wr.Failed
		for _, e := range wr.Errors {
			fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", wr.Name, e)
		}
		for _, name := range sortedKeys(wr.Metrics) {
			s := wr.Metrics[name]
			fmt.Printf("%s/%s %s %s n=%d q1=%s q3=%s\n", wr.Name, name, formatValue(s.Median), s.Unit,
				len(s.Values), formatValue(s.Q1), formatValue(s.Q3))
			flat = append(flat, metric{Name: wr.Name + "/" + name, Unit: s.Unit, Value: s.Median})
		}
	}
	if out != "" {
		if err := rec.save(out); err != nil {
			return err
		}
	}
	if err := printResultLine(correct, attempted, failed, flat); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

// printResultLine prints the machine-readable last line of a run.
func printResultLine(correct bool, attempted, failed int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// concatFiles writes the concatenation of parts to path.
func concatFiles(path string, parts []string) error {
	var all []byte
	for _, p := range parts {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		all = append(all, data...)
	}
	return os.WriteFile(path, all, 0o644)
}
