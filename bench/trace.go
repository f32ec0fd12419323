package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evolve"
	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
	"repro/internal/serve"
)

// layerJobs is how many of a plan's jobs the layer pass resolves
// directly (after any committed runs): enough for per-generation means,
// few enough that a traced run stays well inside its time budget.
const layerJobs = 24

// reloadJobs is how many distinct specs the layer pass reloads from the
// store.
const reloadJobs = 8

// span is one timed interval of a trace. Span names a span uniquely
// within its trace: the layer's span name, with "#n" appended where a
// trace holds several (evolve.generation#3); Parent is the parent's Span.
type span struct {
	Trace  string         `json:"trace"`
	Span   string         `json:"span"`
	Parent string         `json:"parent"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) name() string {
	name, _, _ := strings.Cut(s.Span, "#")
	return name
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jobSpans is a daemon job's trace as its client saw it. Queue, run and
// the start of the stream tail come from the job's Status timestamps,
// which the daemon keeps in milliseconds.
func jobSpans(trace string, r *jobResult) []span {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	st := r.status
	return []span{
		{trace, "job", "", r.start.UnixNano(), r.done.UnixNano(), map[string]any{"key": keyOf(r.spec).String()}},
		{trace, "serve.submit", "job", r.start.UnixNano(), r.submitted.UnixNano(), nil},
		{trace, "serve.queue", "job", ms(st.CreatedMs), ms(st.StartedMs), nil},
		{trace, "serve.run", "job", ms(st.StartedMs), ms(st.FinishedMs),
			map[string]any{"shared": st.Shared, "stored": st.Stored}},
		{trace, "serve.first_record", "job", r.start.UnixNano(), r.first.UnixNano(), nil},
		{trace, "serve.stream_tail", "job", ms(st.FinishedMs), r.done.UnixNano(), nil},
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover, in seconds.
func selfTimes(spans []span) map[string]float64 {
	type ref struct{ trace, span string }
	children := map[ref][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := ref{s.Trace, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[ref{s.Trace, s.Span}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.name()] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// phaseTotals are a runner's per-phase counters.
type phaseTotals struct{ gens, evaluate, speciate, reproduce int64 }

func readPhases(c *hwsim.Counters) phaseTotals {
	return phaseTotals{c.IntValue("generations"), c.IntValue("evaluate_ns"), c.IntValue("speciate_ns"), c.IntValue("reproduce_ns")}
}

func (a phaseTotals) plus(b phaseTotals) phaseTotals {
	return phaseTotals{a.gens + b.gens, a.evaluate + b.evaluate, a.speciate + b.speciate, a.reproduce + b.reproduce}
}

func (a phaseTotals) minus(b phaseTotals) phaseTotals {
	return phaseTotals{a.gens - b.gens, a.evaluate - b.evaluate, a.speciate - b.speciate, a.reproduce - b.reproduce}
}

// resolved is one spec resolved directly through the experiments layer.
type resolved struct {
	digest           [sha256.Size]byte
	computed, stored bool
	phases           phaseTotals
}

// resolve runs one spec through experiments.RunShared, RunSharedPareto
// or RunSharedIsland exactly as the daemon's local executor does, with
// its own phase node, sink and runner hook, and records its spans under
// trace. The returned digest covers the record stream a daemon
// subscriber of the same job receives.
func resolve(tr *tracer, trace, root string, sp serve.Spec) (resolved, error) {
	var (
		out     resolved
		dig     = newStreamDigest()
		phases  = hwsim.New("phases")
		spans   []span
		start   = time.Now().UnixNano()
		genFrom = start // start of the next generation span
		gens    int
		seen    phaseTotals
		started int64
		digErr  error
	)
	record := hwsim.SinkFunc(func(rec hwsim.Record) {
		if err := dig.add(rec); err != nil && digErr == nil {
			digErr = err
		}
	})
	// live receives a computed run's records as Runner.Step emits them;
	// Step has already charged the generation's phases by then.
	live := hwsim.SinkFunc(func(rec hwsim.Record) {
		now := time.Now().UnixNano()
		record(rec)
		cur := readPhases(phases)
		d := cur.minus(seen)
		seen = cur
		id := fmt.Sprintf("evolve.generation#%d", gens)
		child := func(name string, lo, hi int64) span {
			return span{trace, fmt.Sprintf("%s#%d", name, gens), id, lo, hi, nil}
		}
		spans = append(spans, span{trace, id, root, genFrom, now, nil},
			child("evolve.evaluate", genFrom, genFrom+d.evaluate),
			child("neat.speciate", now-d.reproduce-d.speciate, now-d.reproduce),
			child("neat.reproduce", now-d.reproduce, now))
		genFrom = now
		gens++
	})

	var err error
	switch {
	case sp.IsIsland():
		var o *experiments.IslandOutcome
		o, err = experiments.RunSharedIsland(experiments.IslandRequest{
			Workload: sp.Workload, Population: sp.Population, Generations: sp.Generations,
			Islands: sp.Islands, MigrationEvery: sp.MigrationEvery, Seed: sp.Seed,
			Parallelism: 1, Phases: phases,
		})
		if err == nil {
			evolve.ReplayIslandRecords(o.Run, record)
			out.computed, out.stored = o.Computed, o.Stored
		}
	case sp.IsPareto():
		var o *experiments.ParetoOutcome
		o, err = experiments.RunSharedPareto(experiments.ParetoRequest{
			Workload: sp.Workload, Population: sp.Population, Generations: sp.Generations, Seed: sp.Seed,
			Objectives: experiments.SplitObjectives(sp.Objectives), Parallelism: 1, Phases: phases, Sink: live,
		})
		if err == nil {
			if o.Computed {
				evolve.FrontRecords(o.Run, record)
			} else {
				evolve.ReplayParetoRecords(o.Run, record)
			}
			out.computed, out.stored = o.Computed, o.Stored
		}
	default:
		var o *experiments.SharedRun
		o, err = experiments.RunShared(experiments.SharedRequest{
			Workload: sp.Workload, Population: sp.Population, Generations: sp.Generations, Seed: sp.Seed,
			Parallelism: 1, Sink: live, Phases: phases,
			OnRunner: func(*evolve.Runner) {
				started = time.Now().UnixNano()
				genFrom = started
			},
		})
		if err == nil {
			if !o.Computed {
				for _, st := range o.Runner.History {
					record(hwsim.Record{Workload: sp.Workload, Generation: st.Generation, Report: st.CounterReport()})
				}
			}
			out.computed, out.stored = o.Computed, o.Stored
		}
	}
	end := time.Now().UnixNano()
	if err == nil {
		err = digErr
	}
	if err != nil {
		return out, fmt.Errorf("%s: %w", keyOf(sp), err)
	}
	out.digest, out.phases = dig.sum(), readPhases(phases)

	spans = append(spans, span{trace, root, "", start, end,
		map[string]any{"key": keyOf(sp).String(), "computed": out.computed, "stored": out.stored}})
	if started != 0 {
		spans = append(spans, span{trace, "experiments.start", root, start, started, nil})
	}
	// Island runs stream nothing live, so they have no generation spans;
	// their phase totals still count in the per-generation metrics.
	if gens > 0 {
		spans = append(spans, span{trace, "experiments.finish", root, genFrom, end, nil})
	}
	tr.add(spans...)
	return out, nil
}

// layerPass resolves the plan's committed runs and its first layerJobs
// jobs directly through the experiments layer, on a fresh store and an
// empty run cache, with the daemon's batch boundaries and restarts
// (a restart drops the run cache). It then reloads the first
// reloadJobs distinct specs from the store after one more reset, and
// times store.Get on every committed key. Every stream must match the
// daemon's stream of its spec.
func (b *bench) layerPass(ctx context.Context, tr *tracer) (phaseTotals, error) {
	var total phaseTotals
	experiments.ResetCaches()
	dir, err := os.MkdirTemp(b.tmp, "layer-")
	if err != nil {
		return total, err
	}
	defer os.RemoveAll(dir)
	st, err := openStore(dir)
	if err != nil {
		return total, err
	}
	experiments.UseStore(st)
	defer experiments.UseStore(nil)

	batches := [][]serve.Spec{b.plan.commit}
	left := layerJobs
	for _, batch := range b.plan.batches {
		if left <= 0 {
			break
		}
		batch = batch[:min(left, len(batch))]
		left -= len(batch)
		batches = append(batches, batch)
	}
	var (
		mu   sync.Mutex
		seq  atomic.Int64
		keys []serve.Spec
		seen = map[string]bool{}
	)
	run := func(batch []serve.Spec, root, where string, check func(resolved) error) error {
		errs := make([]error, len(batch))
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(batch) && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
					trace := fmt.Sprintf("%s-%04d", where, seq.Add(1))
					r, err := resolve(tr, trace, root, batch[i])
					if err == nil {
						err = check(r)
					}
					if err != nil {
						errs[i] = err
						continue
					}
					b.checkStream(batch[i], r.digest, where)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	for i, batch := range batches {
		if i > 0 && b.plan.restart {
			experiments.ResetCaches()
		}
		err := run(batch, "experiments.resolve", "layer", func(r resolved) error {
			mu.Lock()
			total = total.plus(r.phases)
			mu.Unlock()
			return nil
		})
		if err != nil {
			return total, err
		}
		for _, sp := range batch {
			if k := keyOf(sp).String(); !seen[k] {
				seen[k] = true
				keys = append(keys, sp)
			}
		}
	}

	// The reloaded runs stay pinned in the run cache, so only the first
	// few are reloaded: eight RAM-scale runs are a few hundred MB.
	experiments.ResetCaches()
	err = run(keys[:min(reloadJobs, len(keys))], "experiments.store_load", "reload", func(r resolved) error {
		if !r.stored {
			return fmt.Errorf("reload after a cache reset was not a store hit")
		}
		return nil
	})
	if err != nil {
		return total, err
	}
	for i, sp := range keys {
		t0 := time.Now().UnixNano()
		_, ok := st.Get(keyOf(sp))
		t1 := time.Now().UnixNano()
		if !ok {
			return total, fmt.Errorf("%s: committed run missing from the store", keyOf(sp))
		}
		tr.add(span{fmt.Sprintf("store-%04d", i), "store.get", "", t0, t1, map[string]any{"key": keyOf(sp).String()}})
	}
	return total, nil
}
