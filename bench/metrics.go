package main

import "fmt"

// def is one metric's definition; BENCHMARK.json lists the same names,
// units and directions (bench_test.go checks that they agree).
type def struct{ name, unit, better string }

// endToEnd are the metrics a user of the daemon sees, reported by an
// untraced run.
var endToEnd = []def{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"gens_per_s", "records/s", "higher"},
	{"latency_p50_s", "s", "lower"},
	{"latency_p90_s", "s", "lower"},
	{"ttfr_p50_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, one group per module on a
// job's path. Times per job are means; the daemon stamps queue, run and
// finish times in whole milliseconds, so a median of a sub-millisecond
// wait would read 0 on every run.
var perLayer = []def{
	{"serve.submit_p50_s", "s", "lower"},
	{"serve.queue_wait_mean_s", "s", "lower"},
	{"serve.run_mean_s", "s", "lower"},
	{"serve.stream_tail_mean_s", "s", "lower"},
	{"serve.records_streamed", "count/job", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.sse_dropped", "count", "lower"},
	{"experiments.evolutions_executed", "count/job", "lower"},
	{"experiments.cache_hit_ratio", "ratio", "higher"},
	{"experiments.finish_s", "s", "lower"},
	{"experiments.store_load_s", "s", "lower"},
	{"store.get_s", "s", "lower"},
	{"store.hits", "count/job", "higher"},
	{"store.misses", "count/job", "lower"},
	{"store.commits", "count/job", "lower"},
	{"store.bytes_read", "B/job", "lower"},
	{"store.bytes_written", "B/job", "lower"},
	{"store.commit_errors", "count", "lower"},
	{"store.quarantined", "count", "lower"},
	{"evolve.generations", "count/job", "lower"},
	{"evolve.evaluate_s", "s/gen", "lower"},
	{"evolve.step_self_s", "s/gen", "lower"},
	{"neat.speciate_s", "s/gen", "lower"},
	{"neat.reproduce_s", "s/gen", "lower"},
	{"neat.epoch_share", "ratio", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"unattributed_s", "s/job", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
}

// sample is a metric's value and the number of samples behind it.
type sample struct {
	value float64
	n     int
}

// withUnits orders values by their definitions and attaches the units.
func withUnits(defs []def, values map[string]sample) []metric {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		s, ok := values[d.name]
		if !ok {
			panic(fmt.Sprintf("bench: no value for metric %s", d.name))
		}
		out = append(out, metric{Name: d.name, Unit: d.unit, Value: s.value, N: s.n})
	}
	if len(values) != len(defs) {
		panic("bench: a computed metric has no definition")
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runAndPhaseSeconds sums the jobs' run time (from their Status stamps)
// and the evaluate, speciate and reproduce time the daemon's phase
// counters charged during the pass.
func runAndPhaseSeconds(p pass) (run, phases float64) {
	for i := range p.results {
		if r := &p.results[i]; r.ok() {
			run += float64(r.status.FinishedMs-r.status.StartedMs) / 1e3
		}
	}
	c := p.counters
	return run, (c["phases/evaluate_ns"] + c["phases/speciate_ns"] + c["phases/reproduce_ns"]) / 1e9
}

// unattributedFrac is the share of the jobs' run time no phase claims.
func unattributedFrac(p pass) float64 {
	run, phases := runAndPhaseSeconds(p)
	return ratio(run-phases, run)
}

// perLayerMetrics computes the per-layer breakdown of a traced run from
// the traced daemon pass (its /metrics deltas and client-side spans) and
// the layer pass (its spans and phase totals).
func perLayerMetrics(p pass, spans []span, layer phaseTotals, untracedJobsPerS float64) []metric {
	durs := map[string][]float64{}
	for _, s := range spans {
		durs[s.name()] = append(durs[s.name()], s.seconds())
	}
	mean := func(name string) sample {
		sum := 0.0
		for _, d := range durs[name] {
			sum += d
		}
		return sample{ratio(sum, float64(len(durs[name]))), len(durs[name])}
	}
	jobs := len(durs["job"])
	c := p.counters
	perJob := func(path string) sample { return sample{ratio(c[path], float64(jobs)), jobs} }
	total := func(path string) sample { return sample{c[path], jobs} }
	gens := float64(layer.gens)
	perGen := func(ns int64) sample { return sample{ratio(float64(ns)/1e9, gens), int(layer.gens)} }
	genSpans := len(durs["evolve.generation"])
	run, phases := runAndPhaseSeconds(p)
	epoch := (c["phases/speciate_ns"] + c["phases/reproduce_ns"]) / 1e9
	traced := jobsPerSecond(p)

	return withUnits(perLayer, map[string]sample{
		"serve.submit_p50_s":              {quantile(durs["serve.submit"], 0.5), len(durs["serve.submit"])},
		"serve.queue_wait_mean_s":         mean("serve.queue"),
		"serve.run_mean_s":                mean("serve.run"),
		"serve.stream_tail_mean_s":        mean("serve.stream_tail"),
		"serve.records_streamed":          perJob("stream/records_streamed"),
		"serve.shed":                      total("jobs/shed"),
		"serve.sse_dropped":               total("stream/sse_dropped"),
		"experiments.evolutions_executed": perJob("cache/evolutions_executed"),
		"experiments.cache_hit_ratio":     {ratio(c["jobs/shared_cache"], c["jobs/completed"]), int(c["jobs/completed"])},
		"experiments.finish_s":            mean("experiments.finish"),
		"experiments.store_load_s":        mean("experiments.store_load"),
		"store.get_s":                     mean("store.get"),
		"store.hits":                      perJob("store/ops/hits"),
		"store.misses":                    perJob("store/ops/misses"),
		"store.commits":                   perJob("store/ops/commits"),
		"store.bytes_read":                perJob("store/ops/bytes_read"),
		"store.bytes_written":             perJob("store/ops/bytes_written"),
		"store.commit_errors":             total("store/ops/commit_errors"),
		"store.quarantined":               total("store/ops/quarantined"),
		"evolve.generations":              perJob("phases/generations"),
		"evolve.evaluate_s":               perGen(layer.evaluate),
		"evolve.step_self_s":              {ratio(selfTimes(spans)["evolve.generation"], float64(genSpans)), genSpans},
		"neat.speciate_s":                 perGen(layer.speciate),
		"neat.reproduce_s":                perGen(layer.reproduce),
		"neat.epoch_share":                {ratio(epoch, phases), jobs},
		"runtime.gc_cpu_frac":             {p.gcFrac, 1},
		"unattributed_s":                  {ratio(run-phases, float64(jobs)), jobs},
		"trace_overhead_frac":             {ratio(untracedJobsPerS-traced, untracedJobsPerS), 2},
	})
}
