package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// options select what one workload run does.
type options struct {
	seed    uint64
	seconds int
	traced  bool
	// toy shrinks every workload to a few tiny jobs (the smoke test).
	toy bool
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// result is what one workload run reports.
type result struct {
	workload          string
	metrics           []metric
	attempted, failed int
	errors            []string
	spans             []span
	// hostSlowdown is an untraced run's probe reading over probeRefNs:
	// above 1 the host ran code slower than the reference.
	hostSlowdown sample
}

// bench holds one workload run's state.
type bench struct {
	plan plan
	tmp  string  // scratch root of this run
	dir  string  // the current daemon's directory under tmp
	d    *daemon // the current daemon

	mu     sync.Mutex
	ref    map[string][sha256.Size]byte // first stream seen per run key
	errors []string
}

func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	b.errors = append(b.errors, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// checkStream pins every spec's record stream to the first one seen for
// it, whichever path produced it: a live run, a memory or store replay
// through the daemon, or a direct call into the experiments layer.
func (b *bench) checkStream(sp serve.Spec, digest [sha256.Size]byte, where string) {
	key := keyOf(sp).String()
	b.mu.Lock()
	defer b.mu.Unlock()
	first, ok := b.ref[key]
	if !ok {
		b.ref[key] = digest
		return
	}
	if first != digest {
		b.errors = append(b.errors, fmt.Sprintf("%s: %s stream differs from its first stream", key, where))
	}
}

// runWorkload sets up, measures and checks one workload.
func runWorkload(ctx context.Context, w workload, opt options) (result, error) {
	b := &bench{plan: w.plan(opt.seed, opt.seconds, opt.toy), ref: map[string][sha256.Size]byte{}}
	res := result{workload: w.name}
	tmp, err := os.MkdirTemp("", "genesys-bench-"+w.name+"-")
	if err != nil {
		return res, err
	}
	b.tmp = tmp
	defer os.RemoveAll(tmp)
	defer experiments.ResetCaches()
	defer b.teardown()

	// An untraced run reports end-to-end times, scaled by the host probe
	// that runs from before the first set-up until the daemon stops.
	var probe *hostProbe
	if !opt.traced {
		if probe, err = startProbe(); err != nil {
			return res, err
		}
		defer probe.end()
	}

	// The last set-up stays up for the measured pass.
	var setups []float64
	for i := 0; i < b.plan.setups; i++ {
		b.teardown()
		d, err := b.setup(ctx)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	p, err := b.measure(ctx, b.plan)
	b.account(&res, p, "measured")
	if err != nil {
		return res, err
	}
	if err := b.spotCheck(ctx, p); err != nil {
		return res, err
	}
	b.teardown()
	if !opt.traced {
		reading, n, err := probe.end()
		if err != nil {
			return res, err
		}
		res.hostSlowdown = sample{reading / probeRefNs, n}
		rss, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		res.metrics = endToEndMetrics(setups, p, rss, res.hostSlowdown.value)
		res.errors = b.errors
		return res, nil
	}

	// The traced run repeats the workload on a fresh daemon with the same
	// seed and job sequence, then resolves its first jobs directly
	// through the experiments layer.
	if _, err := b.setup(ctx); err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	tr := &tracer{}
	tp, err := b.measure(ctx, b.plan)
	b.account(&res, tp, "traced")
	b.teardown()
	if err != nil {
		return res, err
	}
	for i := range tp.results {
		if r := &tp.results[i]; r.ok() {
			tr.add(jobSpans(fmt.Sprintf("%04d-%s", i, r.status.ID), r)...)
		}
	}
	lt, err := b.layerPass(ctx, tr)
	if err != nil {
		return res, err
	}
	res.spans = tr.spans
	res.metrics = perLayerMetrics(tp, tr.spans, lt, jobsPerSecond(p))
	if frac := unattributedFrac(tp); frac < -0.05 {
		b.fail("phase timers exceed the jobs' run time by %.1f%%", -100*frac)
	}
	res.errors = b.errors
	return res, nil
}

// setup starts a daemon from scratch in a fresh directory, runs the
// warm-up jobs, and commits the plan's reference runs.
func (b *bench) setup(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	experiments.ResetCaches()
	dir, err := os.MkdirTemp(b.tmp, "daemon-")
	if err != nil {
		return 0, err
	}
	st, err := openStore(dir)
	if err != nil {
		return 0, err
	}
	d, err := startDaemon(st, filepath.Join(dir, "ckpt"))
	if err != nil {
		return 0, err
	}
	b.dir, b.d = dir, d
	for _, batch := range [][]serve.Spec{b.plan.warmup, b.plan.commit} {
		for i, r := range drive(ctx, d.client, batch, false) {
			if !r.ok() {
				return 0, fmt.Errorf("%s: %w", keyOf(batch[i]), r.err)
			}
			b.checkStream(r.spec, r.digest, "set-up")
		}
	}
	return time.Since(start), nil
}

// teardown stops the current daemon, if any, and deletes its directory.
func (b *bench) teardown() {
	if b.d == nil {
		return
	}
	b.d.stop()
	os.RemoveAll(b.dir)
	b.d = nil
}

// account adds a daemon pass's jobs to the run's counts and checks them.
func (b *bench) account(res *result, p pass, where string) {
	res.attempted += len(p.results)
	n, first := p.failures()
	res.failed += n
	if n > 0 {
		b.fail("%s pass: %d of %d jobs did not reach done, first: %v", where, n, len(p.results), first)
	}
	for i := range p.results {
		if r := &p.results[i]; r.ok() {
			b.checkStream(r.spec, r.digest, where)
		}
	}
	if len(b.plan.commit) > 0 {
		if n := p.counters["cache/evolutions_executed"]; n != 0 {
			b.fail("%s pass: %v evolutions executed while replaying committed runs", where, n)
		}
	}
}

// spotCheck resubmits the first two and last two measured jobs once the
// pass is over. They are memory or store hits, and their replayed
// streams must match the live ones byte for byte. A plan with committed
// runs needs none: every one of its measured jobs is such a replay.
func (b *bench) spotCheck(ctx context.Context, p pass) error {
	if len(b.plan.commit) > 0 || len(p.results) == 0 {
		return nil
	}
	n := len(p.results)
	var again []serve.Spec
	for i := range p.results {
		if i < 2 || i >= max(2, n-2) {
			again = append(again, p.results[i].spec)
		}
	}
	for _, r := range drive(ctx, b.d.client, again, false) {
		switch {
		case !r.ok():
			b.fail("replay of %s: %v", keyOf(r.spec), r.err)
		case !r.status.Shared && !r.status.Stored:
			b.fail("replay of %s evolved again instead of hitting the run cache", keyOf(r.spec))
		default:
			b.checkStream(r.spec, r.digest, "replayed")
		}
	}
	return ctx.Err()
}

// jobsPerSecond is the jobs a pass completed per second of its wall
// time.
func jobsPerSecond(p pass) float64 {
	failed, _ := p.failures()
	return ratio(float64(len(p.results)-failed), p.secs)
}

// endToEndMetrics computes the user-visible metrics of a measured pass.
// Rates are over the pass's whole wall time, restarts included: they
// varied less from run to run than medians of per-batch or per-window
// rates did. Latencies are percentiles over every completed job, so that
// the 90th has at least ten samples beyond it. Times are divided, and
// rates multiplied, by the host probe's slowdown.
func endToEndMetrics(setups []float64, p pass, rssMB, slowdown float64) []metric {
	var latency, ttfr []float64
	records := 0
	for i := range p.results {
		if r := &p.results[i]; r.ok() {
			latency = append(latency, r.done.Sub(r.start).Seconds())
			ttfr = append(ttfr, r.first.Sub(r.start).Seconds())
			records += r.records
		}
	}
	jobs := len(latency)
	return withUnits(endToEnd, map[string]sample{
		"setup_s":       {quantile(setups, 0.5) / slowdown, len(setups)},
		"jobs_per_s":    {jobsPerSecond(p) * slowdown, jobs},
		"gens_per_s":    {ratio(float64(records), p.secs) * slowdown, records},
		"latency_p50_s": {quantile(latency, 0.5) / slowdown, jobs},
		"latency_p90_s": {quantile(latency, 0.9) / slowdown, jobs},
		"ttfr_p50_s":    {quantile(ttfr, 0.5) / slowdown, jobs},
		"peak_rss_mb":   {rssMB, 1},
	})
}

// quantile interpolates the q-th quantile of xs (0 for an empty xs).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcCPUSeconds reads the runtime's estimates of GC CPU time and total
// CPU time since the process started.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
