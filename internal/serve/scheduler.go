// Package serve is the evolution-as-a-service layer: a job scheduler
// and HTTP surface (genesysd) that accept evolution jobs over JSON,
// execute them on a bounded worker pool through the experiment
// harness's shared run cache, and stream per-generation records to
// clients as Server-Sent Events. The paper frames GeneSys as an
// always-on continuously learning system (EvE/ADAM never stop); this
// package is that framing applied to the simulation stack — evolution
// as a long-lived service rather than a batch script.
//
// Load policy: the daemon sheds rather than degrades. Admission is
// checked synchronously at submit time against a fixed queue depth
// and a per-client in-flight cap; a request over either limit is
// refused immediately with 429 + Retry-After, so admitted jobs keep
// their latency instead of everyone queueing into the floor. Draining
// (SIGTERM) refuses new work with 503, lets running jobs finish for a
// grace period, then cancels the stragglers — which checkpoint at a
// generation boundary and resume on resubmission.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// Config tunes the scheduler. Zero values select the defaults.
type Config struct {
	// MaxRunning is the worker-pool size: jobs executing concurrently.
	// 0 means runtime.NumCPU().
	MaxRunning int
	// MaxQueue bounds jobs waiting behind the workers; a submit that
	// finds the queue full is shed with 429. 0 means 16.
	MaxQueue int
	// MaxPerClient caps one client's queued+running jobs; over the cap
	// the submit is shed with 429. 0 disables the cap.
	MaxPerClient int
	// RunnerParallelism is each job's evaluation-pool width
	// (evolve.Runner.Parallelism). 0 means 1: the scheduler's worker
	// slots are the parallelism, so MaxRunning jobs use MaxRunning
	// cores.
	RunnerParallelism int
	// CheckpointDir, when set, gives every cache-miss job a
	// checkpoint file named by its cache key (store.CheckpointPath), so
	// an interrupted job (cancel, drain, or a fleet worker's death)
	// resumes when the same spec is resubmitted or re-dispatched to
	// any process sharing the directory.
	CheckpointDir string
	// CheckpointEvery is the periodic checkpoint interval in
	// generations (with CheckpointDir); 0 means 5.
	CheckpointEvery int
	// Store, when set, is the persistent run store: completed jobs
	// commit their results, identical submissions (from any process
	// lifetime) replay from disk, Recover re-enqueues interrupted jobs
	// at boot, and the /store admin surface exposes stats/GC/quarantine.
	Store *store.Store
	// Executor, when set, replaces local job execution — the cluster
	// coordinator installs a Dispatcher here, so admitted jobs execute
	// on the worker fleet while admission control, queueing, SSE
	// streams, cancellation, and metrics stay exactly the single-process
	// surface.
	Executor Executor
}

// Outcome is an executor's report of one successfully completed job;
// a job whose result was not Computed by its own execution is shared.
type Outcome = experiments.JobOutcome

// Executor runs one admitted job to completion, streaming its
// per-generation records through sink (live or replayed — the job's
// subscribers cannot tell). A returned error with ctx cancelled marks
// the job cancelled; any other error marks it failed. Implementations
// may publish the live runner via j.PublishRunner for on-demand
// checkpointing.
type Executor interface {
	Execute(ctx context.Context, j *Job, sink hwsim.Sink) (Outcome, error)
}

func (c Config) withDefaults() Config {
	if c.MaxRunning <= 0 {
		c.MaxRunning = runtime.NumCPU()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.RunnerParallelism <= 0 {
		c.RunnerParallelism = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 5
	}
	return c
}

// ErrDraining is returned by Submit once the scheduler is draining;
// the HTTP layer maps it to 503.
var ErrDraining = errors.New("serve: daemon is draining, not admitting jobs")

// ShedError is an admission refusal — the load-shedding outcome. The
// HTTP layer maps it to 429 with the Retry-After hint.
type ShedError struct {
	Reason     string
	RetryAfter int // seconds
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: load shed (%s), retry after %ds", e.Reason, e.RetryAfter)
}

// ErrUnknownJob is returned for job ids the store has never seen.
var ErrUnknownJob = errors.New("serve: unknown job")

// Scheduler owns the job store, the admission policy, and the worker
// pool. All methods are safe for concurrent use.
type Scheduler struct {
	cfg Config

	baseCtx   context.Context
	cancelAll context.CancelFunc

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	active   map[string]int // queued+running per client
	seq      int
	draining bool

	running atomic.Int64

	exec      Executor
	counters  *hwsim.Counters
	ctrJobs   *hwsim.Counters
	ctrStream *hwsim.Counters
	// subscribers is the stream/subscribers gauge: the SSE handlers
	// streaming right now, each counted while it runs.
	subscribers *hwsim.Int
}

// NewScheduler builds a scheduler and starts its worker pool.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:       cfg,
		baseCtx:   ctx,
		cancelAll: cancel,
		queue:     make(chan *Job, cfg.MaxQueue),
		jobs:      map[string]*Job{},
		active:    map[string]int{},
		counters:  hwsim.New("genesysd"),
	}
	s.ctrJobs = s.counters.Child("jobs")
	s.ctrStream = s.counters.Child("stream")
	s.subscribers = s.ctrStream.Int("subscribers")
	// Gauges refresh at snapshot time, so /metrics is always current
	// without the hot paths maintaining them.
	s.counters.Child("queue").OnSnapshot(func(c *hwsim.Counters) {
		s.mu.Lock()
		draining := s.draining
		clients := int64(len(s.active))
		s.mu.Unlock()
		c.SetInt("depth", int64(len(s.queue)))
		c.SetInt("capacity", int64(cfg.MaxQueue))
		c.SetInt("running", s.running.Load())
		c.SetInt("workers", int64(cfg.MaxRunning))
		c.SetInt("active_clients", clients)
		c.SetInt("draining", boolInt(draining))
	})
	s.counters.Child("cache").OnSnapshot(func(c *hwsim.Counters) {
		c.SetInt("evolutions_executed", experiments.EvolutionsExecuted())
	})
	if cfg.Store != nil {
		// Attach the disk tier under the run cache and mount its
		// counters into this daemon's /metrics tree.
		experiments.UseStore(cfg.Store)
		s.counters.Adopt(cfg.Store.Counters())
	}
	s.exec = cfg.Executor
	if s.exec == nil {
		s.exec = newLocalExecutor(cfg)
	}
	if cw, ok := s.exec.(interface{ Counters() *hwsim.Counters }); ok {
		// An executor with its own registry (the cluster Dispatcher)
		// mounts it into this daemon's /metrics tree.
		s.counters.Adopt(cw.Counters())
	}
	if pw, ok := s.exec.(interface{ Phases() *hwsim.Counters }); ok {
		// An executor keeping a separate phase-accounting node (the
		// cluster Dispatcher — localExecutor's Counters() already IS its
		// phase node) mounts it too, so coordinator /metrics carries
		// evaluate/speciate/reproduce wall-clock like a worker's.
		s.counters.Adopt(pw.Phases())
	}
	for i := 0; i < cfg.MaxRunning; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Counters exposes the scheduler's hwsim registry (the /metrics tree).
func (s *Scheduler) Counters() *hwsim.Counters { return s.counters }

// retryAfterLocked estimates (in whole seconds) when capacity is
// likely to free up — a queue-depth heuristic, clamped to [1, 60].
func (s *Scheduler) retryAfterLocked() int {
	est := 1 + len(s.queue)
	if est > 60 {
		est = 60
	}
	return est
}

// Submit validates and admits one job, or sheds it. Returned errors:
// ErrDraining (refused, daemon stopping), *ShedError (refused, over
// capacity), anything else (invalid spec).
func (s *Scheduler) Submit(spec Spec) (*Job, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	client := spec.Client
	if client == "" {
		client = "(anon)"
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctrJobs.AddInt("submitted", 1)
	if s.draining {
		s.ctrJobs.AddInt("rejected_draining", 1)
		return nil, ErrDraining
	}
	if s.cfg.MaxPerClient > 0 && s.active[client] >= s.cfg.MaxPerClient {
		s.ctrJobs.AddInt("shed", 1)
		return nil, &ShedError{
			Reason:     fmt.Sprintf("client %q at in-flight cap %d", client, s.cfg.MaxPerClient),
			RetryAfter: s.retryAfterLocked(),
		}
	}
	s.seq++
	j := &Job{
		ID:     fmt.Sprintf("job-%04d", s.seq),
		Spec:   spec,
		stream: newStream(),
		done:   make(chan struct{}),
		st:     Status{State: StateQueued, CreatedMs: time.Now().UnixMilli()},
	}
	select {
	case s.queue <- j:
	default:
		s.seq-- // the id was never published
		s.ctrJobs.AddInt("shed", 1)
		return nil, &ShedError{
			Reason:     fmt.Sprintf("queue full (%d waiting)", len(s.queue)),
			RetryAfter: s.retryAfterLocked(),
		}
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.active[client]++
	s.ctrJobs.AddInt("admitted", 1)
	return j, nil
}

// Job looks up one job by id.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels one job: a queued job is finished immediately, a
// running one has its context cancelled (it checkpoints at the next
// generation boundary when checkpointing is configured and then
// reports cancelled). Terminal jobs are left as they are.
func (s *Scheduler) Cancel(id string) (*Job, error) {
	j, ok := s.Job(id)
	if !ok {
		return nil, ErrUnknownJob
	}
	wasQueued, _ := j.requestCancel()
	if wasQueued {
		s.finishJob(j, StateCancelled, "cancelled before start")
	}
	return j, nil
}

// CheckpointJob asks a running job to persist a checkpoint at its
// next generation boundary (no-op without a checkpoint dir). A queued
// job records the request and applies it once it starts.
func (s *Scheduler) CheckpointJob(id string) (*Job, error) {
	j, ok := s.Job(id)
	if !ok {
		return nil, ErrUnknownJob
	}
	if r := j.runner.Load(); r != nil {
		r.RequestCheckpoint()
		return j, nil
	}
	j.mu.Lock()
	j.ckptAsked = true
	j.mu.Unlock()
	return j, nil
}

// Drain stops admission, cancels everything still queued, and waits
// up to grace for running jobs to finish; jobs still running after
// the grace period are cancelled (checkpointing at their next
// generation boundary) and then awaited. Idempotent; the second call
// just waits for the first drain's workers.
func (s *Scheduler) Drain(grace time.Duration) {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	if first {
		// No submit can race this loop: admission checks draining
		// under the same lock that guards this channel drain.
	drainQueued:
		for {
			select {
			case j := <-s.queue:
				s.mu.Unlock()
				s.finishJob(j, StateCancelled, "daemon draining")
				s.mu.Lock()
			default:
				break drainQueued
			}
		}
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		s.cancelAll()
		<-done
	}
	s.cancelAll()
}

// Recover runs the store's startup-recovery pass and re-enqueues every
// interrupted run as a fresh job under the "(recovery)" client: the
// checkpoint file is found by name construction (both sides derive it
// from the cache-key tuple), so each re-enqueued job resumes where the
// crashed process stopped. Call after NewScheduler, before serving
// traffic. No-op without a configured store.
func (s *Scheduler) Recover() (store.RecoveryReport, []*Job) {
	if s.cfg.Store == nil {
		return store.RecoveryReport{}, nil
	}
	rep := s.cfg.Store.Recover()
	jobs := make([]*Job, 0, len(rep.Interrupted))
	for _, key := range rep.Interrupted {
		j, err := s.Submit(Spec{
			Workload:       key.Workload,
			Population:     key.Population,
			Generations:    key.Generations,
			Seed:           key.Seed,
			Islands:        key.Islands,
			MigrationEvery: key.MigrationEvery,
			Objectives:     key.Objectives,
			Client:         "(recovery)",
		})
		if err != nil {
			// Queue full or an unloadable workload: the checkpoint stays
			// on disk and a later submission (or GC age-out) handles it.
			s.ctrJobs.AddInt("recovery_skipped", 1)
			continue
		}
		s.ctrJobs.AddInt("recovered", 1)
		jobs = append(jobs, j)
	}
	return rep, jobs
}

// worker is one slot of the pool.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one admitted job through the configured executor —
// the shared run cache locally, or the cluster dispatcher on a
// coordinator.
func (s *Scheduler) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.start(cancel) {
		// Cancelled while queued; its terminal state is already set.
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	// The job's sink: progress tracking fanned out with the SSE
	// stream. Live cache-miss records and cache-hit replays both go
	// through it, so a job's stream looks the same either way.
	sink := hwsim.MultiSink(hwsim.SinkFunc(func(r hwsim.Record) {
		j.noteRecord(r)
		s.ctrStream.AddInt("records_streamed", 1)
	}), j.stream)

	out, err := s.exec.Execute(ctx, j, sink)
	j.runner.Store(nil)
	switch {
	case err != nil && ctx.Err() != nil:
		s.finishJob(j, StateCancelled, err.Error())
	case err != nil:
		s.finishJob(j, StateFailed, err.Error())
	default:
		if out.Stored {
			s.ctrJobs.AddInt("store_hits", 1)
		}
		if !out.Computed {
			s.ctrJobs.AddInt("shared_cache", 1)
		}
		if out.Resumed {
			s.ctrJobs.AddInt("resumed", 1)
		}
		j.setOutcome(out)
		s.finishJob(j, StateDone, "")
	}
}

// finishJob finalizes a job exactly once: terminal state, client slot
// release and outcome counters, and only then the end of its stream
// and done channel — so a client that has seen the job end finds it
// counted and may submit again at once.
func (s *Scheduler) finishJob(j *Job, state State, msg string) {
	if !j.terminate(state, msg) {
		return
	}
	client := j.Spec.Client
	if client == "" {
		client = "(anon)"
	}
	s.mu.Lock()
	if s.active[client]--; s.active[client] <= 0 {
		delete(s.active, client)
	}
	s.mu.Unlock()
	switch state {
	case StateDone:
		s.ctrJobs.AddInt("completed", 1)
	case StateFailed:
		s.ctrJobs.AddInt("failed", 1)
	case StateCancelled:
		s.ctrJobs.AddInt("cancelled", 1)
	}
	j.close()
}
