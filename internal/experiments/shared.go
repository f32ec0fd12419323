package experiments

import (
	"context"
	"fmt"

	"repro/internal/evolve"
	"repro/internal/hw/hwsim"
	"repro/internal/neat"
	"repro/internal/store"
	"repro/internal/trace"
)

// This file is the exported face of the run cache: the serving layer
// (internal/serve) submits evolution jobs through the exact same
// singleflight store the figure generators use, so a daemon job, a
// figure regeneration, and a duplicate client submission of the same
// (workload, population, generations, seed) all resolve to one
// executed evolution per process. Cached entries are uniform — every
// compute attaches a trace recorder — so an entry evolved for a
// daemon job can later feed a hardware-replay figure and vice versa.

// SharedRequest describes one evolution to run (or fetch) through the
// shared run cache. The tuple (Workload, Population, Generations,
// Seed) is the cache key; everything else shapes how a cache miss
// executes and does not affect identity.
type SharedRequest struct {
	Workload    string
	Population  int
	Generations int
	Seed        uint64

	// Ctx cancels a cache-miss evolution; nil means Background. A
	// cancelled compute is evicted from the cache (concurrent waiters
	// share the cancellation error; a later identical request
	// recomputes — and resumes from its checkpoint if one was saved).
	Ctx context.Context
	// Sink, when set, receives this run's per-generation records live
	// while it evolves. Only the computing request streams; a request
	// served from cache (Computed=false) gets no live records and
	// should replay SharedRun.Runner.History instead.
	Sink hwsim.Sink
	// Parallelism caps the runner's evaluation worker pool (0 =
	// GOMAXPROCS); a scheduler running many jobs passes 1 so its own
	// worker slots are the only parallelism.
	Parallelism int
	// Checkpoints + CheckpointEvery enable checkpointing on a cache
	// miss: the run resumes from the key's checkpoint in Checkpoints
	// when one restores, saves one every CheckpointEvery generations,
	// and removes it once the run completes. Every process running the
	// key shares its one checkpoint file, so a worker taking over a dead
	// or partitioned worker's job resumes from its checkpoint, and saves
	// stage through files of their own, so the two never interleave.
	Checkpoints     *store.Checkpoints
	CheckpointEvery int
	// OnRunner, when set, is called with the live runner just before a
	// cache-miss run starts — the hook a serving layer uses to wire
	// per-job control (Runner.RequestCheckpoint). The runner is owned
	// by the computing goroutine; callers must only use the
	// goroutine-safe Runner surface.
	OnRunner func(*evolve.Runner)
	// Phases, when set, receives a cache miss's wall-clock counters:
	// the runner's per phase (evaluate/speciate/reproduce) and per
	// checkpoint, and the store commit's — a live accounting node, not
	// part of the cache key or the memoized run. Cache hits and store
	// replays execute no phases and charge nothing.
	Phases *hwsim.Counters
}

// SharedRun is the outcome of a shared-cache request.
type SharedRun struct {
	// Runner holds the finished run: History, Pop, workload. Shared
	// and immutable by contract — re-scoring goes through the
	// non-mutating Runner.ScoreGenome.
	Runner *evolve.Runner
	// Trace is the reproduction trace recorded during the run.
	Trace *trace.Trace
	// Solved reports whether the run reached the workload target.
	Solved bool
	// Resumed reports whether the compute restored a checkpoint (its
	// History then covers only the post-restore generations).
	Resumed bool
	// Computed is true only for the request whose compute executed the
	// evolution; concurrent and later requests of the same key see
	// false and share the first request's artifacts.
	Computed bool
	// Stored reports that this request's cache miss was served from the
	// persistent store: a full history replay with no evolution
	// executed. Like a memory hit it leaves Computed false, so callers
	// replay Runner.History.
	Stored bool
}

// RunShared resolves one evolution through the package's singleflight
// run cache: the first request of a key executes it (honoring Sink,
// checkpointing, and cancellation), concurrent requests block on that
// execution, later requests return the memoized run immediately.
func RunShared(req SharedRequest) (*SharedRun, error) {
	e, out, err := runTier.get(&JobRequest{
		Key:             store.Key{Workload: req.Workload, Population: req.Population, Generations: req.Generations, Seed: req.Seed},
		Ctx:             req.Ctx,
		Sink:            req.Sink,
		Parallelism:     req.Parallelism,
		Phases:          req.Phases,
		Checkpoints:     req.Checkpoints,
		CheckpointEvery: req.CheckpointEvery,
		OnRunner:        req.OnRunner,
	})
	if err != nil {
		return nil, err
	}
	return &SharedRun{Runner: e.runner, Trace: e.trace, Solved: e.solved,
		Resumed: out.Resumed, Computed: out.Computed, Stored: out.Stored}, nil
}

// EvolutionsExecuted reports how many evolution computations (single
// runs plus studies) have executed since the last cache reset — the
// execution counter admission tests and the daemon's metrics use to
// prove deduplication.
func EvolutionsExecuted() int64 { return evolutionsExecuted() }

// runTier caches scalar runs: every figure's evolutions and the
// daemon's ordinary jobs share it.
var runTier = tier[*evolved]{
	check:   checkRun,
	compute: computeRun,
	encode:  encodeRun,
	decode:  decodeRun,
	records: func(key store.Key, e *evolved, sink hwsim.Sink, live bool) {
		if live {
			return // the runner streamed every generation as it ran
		}
		for _, st := range e.runner.History {
			sink.Record(hwsim.Record{Workload: key.Workload, Generation: st.Generation, Report: st.CounterReport()})
		}
	},
	summary: func(e *evolved) (bool, float64, int) {
		return e.solved, bestFitness(e.runner.History), len(e.runner.History)
	},
}

// bestFitness is a history's highest MaxFitness (0 for no history):
// the best fitness a job reports and its artifact's Meta records.
func bestFitness(history []evolve.GenStats) float64 {
	var best float64
	for i, st := range history {
		if i == 0 || st.MaxFitness > best {
			best = st.MaxFitness
		}
	}
	return best
}

func checkRun(key store.Key) error {
	if _, err := evolve.WorkloadByName(key.Workload); err != nil {
		return err
	}
	if key.Population < 2 || key.Population > neat.MaxPopulationSize {
		return fmt.Errorf("population %d outside [2, %d]", key.Population, neat.MaxPopulationSize)
	}
	return evolve.CheckGenerations(key.Generations)
}

// computeRun is the scalar cache-miss body: one evolution with a trace
// recorder attached, run on the requesting goroutine under the key's
// singleflight slot.
func computeRun(key store.Key, req *JobRequest) (*evolved, bool, error) {
	ckpts := req.Checkpoints
	r, resumed, err := startRun(key, ckpts)
	if err != nil {
		return nil, false, err
	}
	r.Parallelism = req.Parallelism
	r.Sink = req.Sink
	r.Phases = req.Phases
	tr := &trace.Trace{}
	r.SetRecorder(tr)
	if ckpts != nil {
		r.Checkpoint = func(doc []byte) error { return ckpts.Save(key, doc) }
		r.CheckpointEvery = req.CheckpointEvery
	}
	if req.OnRunner != nil {
		req.OnRunner(r)
	}
	evolutionsRun.Add(1)
	solved, err := r.Run(req.ctx(), key.Generations)
	if err != nil {
		return nil, false, err
	}
	// A completed run's checkpoint has served its purpose; removing it
	// keeps a later run of the key (after a cache reset) from "resuming"
	// a finished population.
	if ckpts != nil {
		ckpts.Remove(key)
	}
	// Cached entries are read-only (History/Pop/trace; re-scoring uses
	// the self-contained ScoreGenome), so drop the evaluation engine
	// before the cache holds this runner — for the process lifetime
	// when no store backs it — otherwise every held run keeps its batch
	// planes and environment pool live and GC scan time grows with them.
	r.ReleaseEvalState()
	return &evolved{runner: r, trace: tr, solved: solved}, resumed, nil
}

// startRun restores key's checkpoint from ckpts when one loads, and
// starts a fresh run otherwise; resumed reports which. A checkpoint
// that loads but does not restore (a population document of another
// format version) is removed: kept, it would fail every retry of its
// key until GC aged it out, and the run is deterministic, so
// recomputing it costs time but never changes the result.
func startRun(key store.Key, ckpts *store.Checkpoints) (r *evolve.Runner, resumed bool, err error) {
	if ckpts != nil {
		if doc, ok := ckpts.Load(key); ok {
			if r, err := evolve.RestoreRunner(key.Workload, doc, key.Seed); err == nil {
				return r, true, nil
			}
			ckpts.Remove(key)
		}
	}
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = key.Population
	r, err = evolve.NewRunner(key.Workload, cfg, key.Seed)
	return r, false, err
}
