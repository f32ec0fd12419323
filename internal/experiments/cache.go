package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evolve"
	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// This file is the harness's shared evolution store. The expensive
// artifacts of the pipeline — a single evolved run, a priced
// comparison, a multi-run study — are memoized behind singleflight
// maps, so one cmd/experiments invocation performs each unique
// evolution exactly once no matter how many figures ask for it or how
// many of them are running concurrently. This is the paper's
// genome-level-reuse observation applied to the simulation layer:
// identical work is computed once and shared.
//
// Sharing is sound because a finished run is immutable: every consumer
// reads Runner.History, Pop.Genomes, and the trace; none of them write
// (resilience re-scores champions through the non-mutating
// Runner.ScoreGenome). Byte-identical outputs follow from determinism:
// an evolution run is a pure function of its key, so handing a figure
// the cached run is indistinguishable from letting it re-evolve.
//
// Every run kind — scalar, island, Pareto — goes through one tier
// type keyed by store.Key: memory first, then the persistent store,
// then a computation that is committed back. A kind contributes only
// its validation, compute body, store codec, and record rendering.

// studyKey identifies one unique multi-run study. seed is the study
// base seed; per-run seeds derive from it via evolve.RunSeed, a
// different stream from single-run seeds, so studies and single runs
// never share entries.
type studyKey struct {
	workload    string
	population  int
	generations int
	runs        int
	seed        uint64
}

// flight is one in-progress or completed computation.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// flightMap memoizes computations with singleflight semantics: the
// first requester of a key computes, concurrent requesters of the same
// key block on that computation, later requesters get the cached
// value. A failed computation is evicted before its waiters are
// released, so a transient error (a cancelled context) does not poison
// the key forever — but its waiters share the error rather than piling
// on retries.
type flightMap[K comparable, V any] struct {
	mu       sync.Mutex
	m        map[K]*flight[V]
	computes atomic.Int64
}

// peek returns the memoized value for key only when its computation
// already completed successfully — never blocking and never computing.
func (fm *flightMap[K, V]) peek(key K) (V, bool) {
	var zero V
	fm.mu.Lock()
	f, ok := fm.m[key]
	fm.mu.Unlock()
	if !ok {
		return zero, false
	}
	select {
	case <-f.done:
		if f.err != nil {
			return zero, false
		}
		return f.val, true
	default:
		return zero, false
	}
}

// get returns the memoized value for key, computing it via compute if
// this is the key's first request.
func (fm *flightMap[K, V]) get(key K, compute func() (V, error)) (V, error) {
	fm.mu.Lock()
	if fm.m == nil {
		fm.m = map[K]*flight[V]{}
	}
	if f, ok := fm.m[key]; ok {
		fm.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	fm.m[key] = f
	fm.mu.Unlock()

	fm.computes.Add(1)
	f.val, f.err = compute()
	if f.err != nil {
		fm.mu.Lock()
		delete(fm.m, key)
		fm.mu.Unlock()
	}
	close(f.done)
	return f.val, f.err
}

// reset drops every entry and zeroes the compute counter.
func (fm *flightMap[K, V]) reset() {
	fm.mu.Lock()
	fm.m = nil
	fm.mu.Unlock()
	fm.computes.Store(0)
}

// JobRequest is one run of any kind. Key is the run's identity and
// picks its kind: island fields set make an island run, objectives a
// Pareto run, anything else a scalar run. The other fields shape a
// cache-miss computation and never affect identity.
type JobRequest struct {
	Key store.Key
	// Ctx cancels a cache-miss computation; nil means Background. A
	// cancelled computation is evicted, so a later request recomputes.
	Ctx context.Context
	// Sink receives the job's record stream: live while a cache miss
	// computes, replayed from the finished run by Resolve otherwise.
	Sink hwsim.Sink
	// Parallelism shapes evaluation (0 = default).
	Parallelism int
	// Phases, when set, receives a computation's wall-clock counters:
	// per phase, per checkpoint and for its store commit (metrics only,
	// never stored).
	Phases *hwsim.Counters
	// CheckpointPath, CheckpointEvery and OnRunner apply to scalar
	// runs only; see SharedRequest.
	CheckpointPath  string
	CheckpointEvery int
	OnRunner        func(*evolve.Runner)
	// RunIslands, when set, computes an island run in place of the
	// single-process reference — the coordinator's fleet hook. It must
	// return the deterministic run of spec.
	RunIslands func(ctx context.Context, spec evolve.IslandSpec) (*evolve.IslandRun, error)
}

// ctx returns the effective cancellation context.
func (req *JobRequest) ctx() context.Context {
	if req.Ctx != nil {
		return req.Ctx
	}
	return context.Background()
}

// JobOutcome is a resolved job seen independently of its kind.
type JobOutcome struct {
	Solved bool
	// Best is the run's best task fitness; Gens its history length.
	Best float64
	Gens int
	// Computed is true only for the request whose computation executed;
	// Stored reports a miss served from the persistent store; Resumed a
	// computation that restored a checkpoint.
	Computed bool
	Stored   bool
	Resumed  bool
}

// tier caches one run kind: a singleflight memory map over the
// persistent store, both keyed by store.Key. The kind supplies the
// functions; the tier owns lookup, load, quarantine, commit and peek.
type tier[R any] struct {
	mem flightMap[store.Key, R]
	// check rejects a key this kind cannot run, before any lookup.
	check func(store.Key) error
	// compute runs a cache miss. resumed reports a restored checkpoint:
	// the history is then partial, so the run is not committed.
	compute func(key store.Key, req *JobRequest) (run R, resumed bool, err error)
	// encode renders a run as its store payload files; decode rebuilds
	// it, failing on any payload that does not match its key.
	encode func(store.Key, R) (map[string][]byte, error)
	decode func(store.Key, *store.Artifact) (R, error)
	// records renders the run's record stream into sink. With live set
	// the request computed it, and records adds only what its live Sink
	// did not already carry.
	records func(key store.Key, run R, sink hwsim.Sink, live bool)
	// summary folds the run into its job-level result, which is also
	// the artifact's store.Meta.
	summary func(R) (solved bool, best float64, gens int)
}

// get resolves req.Key through memory, then the store, then compute.
func (t *tier[R]) get(req *JobRequest) (R, JobOutcome, error) {
	var out JobOutcome
	if err := t.check(req.Key); err != nil {
		var zero R
		return zero, out, err
	}
	run, err := t.mem.get(req.Key, func() (R, error) {
		if run, ok := t.load(req.Key); ok {
			out.Stored = true
			return run, nil
		}
		out.Computed = true
		run, resumed, err := t.compute(req.Key, req)
		if err == nil && !resumed {
			t.commit(req, run)
		}
		out.Resumed = resumed
		return run, err
	})
	return run, out, err
}

// load rehydrates a run from the attached store. Any failure degrades
// to a miss; a payload whose bytes verify but do not decode is as
// corrupt as a checksum mismatch, so it is quarantined and the
// recompute can commit a fresh artifact.
func (t *tier[R]) load(key store.Key) (R, bool) {
	var zero R
	s := activeStore.Load()
	if s == nil {
		return zero, false
	}
	art, ok := s.Get(key)
	if !ok {
		return zero, false
	}
	run, err := t.decode(key, art)
	if err != nil {
		s.QuarantineKey(key, fmt.Sprintf("decode: %v", err))
		return zero, false
	}
	return run, true
}

// commit writes a computed run to the attached store, best-effort: a
// failed commit only means the next cold process recomputes. The
// artifact's Meta is the run's summary, so it reads what the job
// reported. Its time, encode and Put, is charged to req.Phases as
// commit_ns.
func (t *tier[R]) commit(req *JobRequest, run R) {
	s := activeStore.Load()
	if s == nil {
		return
	}
	start := time.Now()
	if files, err := t.encode(req.Key, run); err == nil {
		var meta store.Meta
		meta.Solved, meta.BestFitness, meta.Generations = t.summary(run)
		s.Put(req.Key, meta, files)
	}
	if req.Phases != nil {
		req.Phases.AddInt("commit_ns", time.Since(start).Nanoseconds())
	}
}

// peek answers key from memory or the store without ever computing. A
// store hit is memoized, so repeated peeks read disk once.
func (t *tier[R]) peek(key store.Key) (run R, stored, ok bool) {
	if run, ok := t.mem.peek(key); ok {
		return run, false, true
	}
	loaded, ok := t.load(key)
	if !ok {
		return run, false, false
	}
	run, err := t.mem.get(key, func() (R, error) { return loaded, nil })
	return run, true, err == nil
}

// kind is a run kind as the job path sees it, whatever its result type.
type kind interface {
	validate(store.Key) error
	resolve(JobRequest) (JobOutcome, error)
	replay(store.Key, hwsim.Sink) (JobOutcome, bool)
}

func (t *tier[R]) validate(key store.Key) error { return t.check(key) }

func (t *tier[R]) resolve(req JobRequest) (JobOutcome, error) {
	run, out, err := t.get(&req)
	if err != nil {
		return JobOutcome{}, err
	}
	if req.Sink != nil {
		t.records(req.Key, run, req.Sink, out.Computed)
	}
	out.Solved, out.Best, out.Gens = t.summary(run)
	return out, nil
}

func (t *tier[R]) replay(key store.Key, sink hwsim.Sink) (JobOutcome, bool) {
	run, stored, ok := t.peek(key)
	if !ok {
		return JobOutcome{}, false
	}
	t.records(key, run, sink, false)
	out := JobOutcome{Stored: stored}
	out.Solved, out.Best, out.Gens = t.summary(run)
	return out, true
}

// kindOf is the one run-kind switch.
func kindOf(key store.Key) kind {
	switch {
	case key.Islands > 0:
		return &islandTier
	case key.Objectives != "":
		return &paretoTier
	}
	return &runTier
}

// Validate rejects a job key its kind cannot run.
func Validate(key store.Key) error {
	if key.Islands > 0 && key.Objectives != "" {
		return errors.New("islands and objectives are mutually exclusive")
	}
	return kindOf(key).validate(key)
}

// Resolve runs one job of any kind through its tier. A computing
// request streams its records live through req.Sink; every other
// request (a memory hit, a store hit, a singleflight waiter) replays
// the finished run's identical stream through it.
func Resolve(req JobRequest) (JobOutcome, error) { return kindOf(req.Key).resolve(req) }

// Replay streams a run this process already holds, in memory or in
// the store, without ever computing; it reports false when the run is
// in neither. It is the coordinator's check before dispatching a job.
func Replay(key store.Key, sink hwsim.Sink) (JobOutcome, bool) {
	return kindOf(key).replay(key, sink)
}

// The caches besides the run tiers, in dependency order: comparisons
// consume runs, figures consume both and studies.
var (
	studyCache flightMap[studyKey, *evolve.Study]
	priceCache flightMap[store.Key, *comparison]
)

// evolutionsRun counts actual evolution executions — bumped only when
// a runner really runs, not when a cache miss is served from the
// persistent store. runTier.mem.computes keeps counting compute-closure
// invocations (the singleflight accounting its tests pin); this
// counter is the "did we pay for an evolution" ledger the durability
// proof asserts stays flat across a disk replay.
var evolutionsRun atomic.Int64

// ResetCaches drops every memoized run, study, and comparison. A CLI
// invocation never needs this; it exists for benchmarks and tests that
// measure or compare cold-cache behavior within one process.
func ResetCaches() {
	runTier.mem.reset()
	islandTier.mem.reset()
	paretoTier.mem.reset()
	studyCache.reset()
	priceCache.reset()
	evolutionsRun.Store(0)
}

// evolutionsExecuted reports how many evolution computations ran since
// the last reset: single runs plus studies (a study internally
// executes its configured number of runs, but enters the pipeline as
// one computation). Runs replayed from the persistent store are not
// executions and do not count.
func evolutionsExecuted() int64 {
	return evolutionsRun.Load() + studyCache.computes.Load()
}
