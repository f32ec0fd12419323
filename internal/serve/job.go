package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evolve"
	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// State is a job's lifecycle position. The transitions are:
//
//	queued ──▶ running ──▶ done
//	   │          ├──────▶ failed
//	   └──────────┴──────▶ cancelled
//
// Terminal states (done, failed, cancelled) never transition again.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is one evolution job request — the JSON body of POST /jobs.
// (Workload, Population, Generations, Seed) is also the shared run
// cache key: two admitted jobs with equal tuples execute one
// evolution.
type Spec struct {
	Workload    string `json:"workload"`
	Population  int    `json:"population,omitempty"`
	Generations int    `json:"generations,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	// Islands, when > 0, makes this an island-model job: the population
	// splits into Islands sub-populations that evolve independently and
	// exchange champions every MigrationEvery generations. Both fields
	// join the cache key — an island run is a different computation
	// than a panmictic run of the same tuple.
	Islands        int `json:"islands,omitempty"`
	MigrationEvery int `json:"migration_every,omitempty"`
	// Objectives, when non-empty, makes this a Pareto (multi-objective)
	// job: the population evolves under NSGA-II selection over the named
	// objective vector and the job's stream and result carry the Pareto
	// front. The canonical '+'-joined form ("fitness+genes+energy") is
	// used on the wire and in the cache key — the vector, order
	// included, is part of the run's identity. Mutually exclusive with
	// Islands.
	Objectives string `json:"objectives,omitempty"`
	// Client identifies the submitter for the per-client in-flight
	// cap; empty falls back to the transport identity (header, then
	// remote address).
	Client string `json:"client,omitempty"`
}

// withDefaults fills unset fields with the daemon's defaults.
func (sp Spec) withDefaults() Spec {
	if sp.Population <= 0 {
		sp.Population = 64
	}
	if sp.Generations <= 0 {
		sp.Generations = 30
	}
	if sp.Seed == 0 {
		sp.Seed = 42
	}
	if sp.Islands > 0 && sp.MigrationEvery <= 0 {
		sp.MigrationEvery = 5
	}
	return sp
}

// IsIsland reports whether the spec requests an island-model run.
func (sp Spec) IsIsland() bool { return sp.Islands > 0 }

// IsPareto reports whether the spec requests a Pareto-mode run.
func (sp Spec) IsPareto() bool { return sp.Objectives != "" }

// validate rejects specs the scheduler would choke on.
func (sp Spec) validate() error { return experiments.Validate(sp.key()) }

// key is the spec's run identity, the run tier's and the store's key.
// Its String() names checkpoint files and places the job on the
// cluster ring, so an interrupted job's resubmission finds its
// checkpoint and the ring finds the same owner by construction.
func (sp Spec) key() store.Key {
	k := store.Key{Workload: sp.Workload, Population: sp.Population, Generations: sp.Generations,
		Seed: sp.Seed, Objectives: sp.Objectives}
	if sp.IsIsland() {
		k.Islands, k.MigrationEvery = sp.Islands, sp.MigrationEvery
	}
	return k
}

// Job is one submitted evolution with its lifecycle state and record
// stream. All mutable fields are guarded by mu; reads go through
// Status.
type Job struct {
	ID   string
	Spec Spec

	stream *stream
	// done closes when the job reaches a terminal state.
	done chan struct{}

	// runner is published by the compute hook while the job is live on
	// a cache miss; used for on-demand checkpoint requests.
	runner atomic.Pointer[evolve.Runner]

	mu sync.Mutex
	// st is the job's state in the form it is served; Status fills in
	// ID and Spec.
	st        Status
	cancel    context.CancelFunc
	ckptAsked bool
}

// Status is the wire form of a job — what every jobs endpoint returns.
type Status struct {
	ID          string  `json:"id"`
	Spec        Spec    `json:"spec"`
	State       State   `json:"state"`
	Error       string  `json:"error,omitempty"`
	Solved      bool    `json:"solved,omitempty"`
	Shared      bool    `json:"shared,omitempty"`
	Resumed     bool    `json:"resumed,omitempty"`
	Stored      bool    `json:"stored,omitempty"`
	BestFitness float64 `json:"best_fitness,omitempty"`
	Generations int     `json:"generations"`
	CreatedMs   int64   `json:"created_unix_ms"`
	StartedMs   int64   `json:"started_unix_ms,omitempty"`
	FinishedMs  int64   `json:"finished_unix_ms,omitempty"`
}

// Status snapshots the job under its lock.
func (j *Job) Status() Status {
	j.mu.Lock()
	st := j.st
	j.mu.Unlock()
	st.ID, st.Spec = j.ID, j.Spec
	return st
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.State
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// start moves queued → running, wiring the cancel func. It reports
// false when the job was cancelled while queued.
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State != StateQueued {
		return false
	}
	j.st.State = StateRunning
	j.st.StartedMs = time.Now().UnixMilli()
	j.cancel = cancel
	return true
}

// terminate moves the job into a terminal state, reporting whether
// this call performed the transition (false if already terminal — a
// DELETE racing completion keeps the first outcome). The stream and
// done stay open until close, so whoever terminated the job can
// settle its accounting before any watcher sees the end.
func (j *Job) terminate(state State, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State.Terminal() {
		return false
	}
	j.st.State = state
	j.st.Error = errMsg
	j.st.FinishedMs = time.Now().UnixMilli()
	j.cancel = nil
	return true
}

// close ends the record stream and the done channel of a job
// terminate has moved to its terminal state; call it exactly once,
// after a successful terminate.
func (j *Job) close() {
	j.stream.Close()
	close(j.done)
}

// requestCancel cancels a running job's context, or reports the job
// is still queued (the scheduler then finishes it directly). Terminal
// jobs are left alone.
func (j *Job) requestCancel() (wasQueued, wasRunning bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.st.State {
	case StateQueued:
		return true, false
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
		return false, true
	}
	return false, false
}

// setOutcome records a finished run's result fields before finish.
func (j *Job) setOutcome(out Outcome) {
	j.mu.Lock()
	j.st.Solved = out.Solved
	j.st.Shared = !out.Computed
	j.st.Resumed = out.Resumed
	j.st.Stored = out.Stored
	j.st.BestFitness = out.Best
	j.st.Generations = out.Gens
	j.mu.Unlock()
}

// PublishRunner publishes (or clears, with nil) the live runner an
// executor is driving, so CheckpointJob can reach it, and applies any
// checkpoint request that arrived while the job was still queued.
func (j *Job) PublishRunner(r *evolve.Runner) {
	j.runner.Store(r)
	if r == nil {
		return
	}
	j.mu.Lock()
	asked := j.ckptAsked
	j.ckptAsked = false
	j.mu.Unlock()
	if asked {
		r.RequestCheckpoint()
	}
}

// noteRecord folds a streamed record into the live generation count
// and best fitness — so GET /jobs/{id} shows live progress.
func (j *Job) noteRecord(rec hwsim.Record) {
	j.mu.Lock()
	noteGeneration(j.Spec, rec, &j.st.Generations, &j.st.BestFitness)
	j.mu.Unlock()
}

// noteGeneration counts rec into a live tally of spec's generations
// and their best max_fitness, if rec is one of them. Generation
// records carry the bare workload name; tagged ones (a Pareto run's
// "#front" points, an island run's "#iN" histories) are not the job's
// generations: a front point has no max_fitness at all. The job's
// final count and best come from its Outcome.
func noteGeneration(spec Spec, rec hwsim.Record, gens *int, best *float64) {
	if rec.Workload != spec.Workload {
		return
	}
	*gens++
	if mf := rec.Report.Float("max_fitness"); *gens == 1 || mf > *best {
		*best = mf
	}
}
