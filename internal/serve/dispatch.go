package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/evolve"
	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
)

// Dispatcher is the cluster coordinator's Executor: admitted jobs are
// routed to the worker owning their run-cache key on the consistent
// hash ring, executed remotely through the ordinary genesysd client
// surface, and their record streams proxied back into the local job's
// sink — so submitters talk to one coordinator and cannot tell the
// fleet from a single process. Island-model jobs are instead sharded
// across every live worker (cluster.RunDistributed).
//
// Failover: a transport failure mid-job marks the worker dead in the
// registry (its ring points are removed immediately) and re-dispatches
// the job to the key's new owner, which resumes from the dead worker's
// orphaned checkpoint when the fleet shares a checkpoint directory.
// Records replayed by the new worker are deduplicated by generation
// number, so the coordinator's stream stays exactly-once.
type Dispatcher struct {
	// Members is the worker registry and hash ring.
	Members *cluster.Membership
	// HTTP is the transport to workers; nil means http.DefaultClient.
	HTTP *http.Client

	init     sync.Once
	counters *hwsim.Counters
	ctr      *hwsim.Counters
	// phases aggregates per-phase generation wall-clock for every run
	// the coordinator computes in-process (any job on an empty fleet) —
	// the same accounting localExecutor keeps, so a coordinator's
	// /metrics carries the phase tree too.
	phases *hwsim.Counters

	mu       sync.Mutex
	inflight map[string]int // live dispatched jobs per worker id
	live     map[string]*liveDispatch
}

// liveDispatch is one job currently placed on a remote worker, indexed
// by coordinator job ID — the state Rebalance consults when the ring
// changes.
type liveDispatch struct {
	key      string
	workerID string
	remoteID string
	cl       *Client
	// rebalanced marks that the coordinator itself cancelled the remote
	// job to move it to a new ring owner; runOn turns the resulting
	// cancelled outcome into errRebalanced instead of a worker failure.
	rebalanced atomic.Bool
}

// dispatchAttempts bounds one job's dispatch attempts across worker
// deaths and rebalances.
const dispatchAttempts = 4

// errRebalanced marks a dispatch attempt ended by the coordinator
// cancelling a still-queued remote job whose consistent-hash owner
// changed (a new worker joined). The dispatch loop retries on the new
// owner WITHOUT marking the old worker dead — it is healthy; the job
// just belongs elsewhere now.
var errRebalanced = errors.New("serve: queued job re-routed to its new ring owner")

// workerFailure marks a dispatch error attributable to the worker
// (transport broke, stream died) rather than to the job itself — the
// signal to mark the worker dead and re-dispatch.
type workerFailure struct{ err error }

func (e *workerFailure) Error() string { return e.err.Error() }
func (e *workerFailure) Unwrap() error { return e.err }

func (d *Dispatcher) http() *http.Client {
	if d.HTTP != nil {
		return d.HTTP
	}
	return http.DefaultClient
}

// Counters exposes the dispatcher's cluster registry; the scheduler
// adopts it into the daemon's /metrics tree.
func (d *Dispatcher) Counters() *hwsim.Counters {
	d.ensure()
	return d.counters
}

// Phases exposes the dispatcher's phase-accounting node — the
// scheduler mounts it next to the cluster registry, so the coordinator
// reports evaluate/speciate/reproduce wall-clock for runs it computes
// in-process exactly as a single-process daemon does.
func (d *Dispatcher) Phases() *hwsim.Counters {
	d.ensure()
	return d.phases
}

func (d *Dispatcher) ensure() {
	d.init.Do(func() {
		d.counters = hwsim.New("cluster")
		d.ctr = d.counters
		d.phases = hwsim.New("phases")
		d.inflight = map[string]int{}
		d.live = map[string]*liveDispatch{}
		// Fleet gauges refresh at snapshot time from the registry.
		d.counters.OnSnapshot(func(c *hwsim.Counters) {
			status, points := d.Members.Status()
			live := 0
			for _, st := range status {
				if st.Alive {
					live++
				}
			}
			c.SetInt("workers_known", int64(len(status)))
			c.SetInt("workers_live", int64(live))
			c.SetInt("ring_points", int64(points))
		})
		d.counters.Child("inflight").OnSnapshot(func(c *hwsim.Counters) {
			d.mu.Lock()
			for id, n := range d.inflight {
				c.SetInt(id, int64(n))
			}
			d.mu.Unlock()
		})
	})
}

func (d *Dispatcher) track(workerID string, delta int) {
	d.mu.Lock()
	d.inflight[workerID] += delta
	if d.inflight[workerID] <= 0 {
		delete(d.inflight, workerID)
	}
	d.mu.Unlock()
}

// Execute routes one admitted job. A run the coordinator already holds
// in memory or in its store is replayed without touching a worker; on
// an empty fleet the coordinator computes the job itself (runs are
// deterministic, so the result is identical to a worker's); island
// jobs are sharded across the fleet; every other job is dispatched to
// its key's ring owner.
func (d *Dispatcher) Execute(ctx context.Context, j *Job, sink hwsim.Sink) (Outcome, error) {
	d.ensure()
	if out, ok := experiments.Replay(j.Spec.key(), sink); ok {
		d.ctr.AddInt("proxied_store_hits", 1)
		return out, nil
	}
	req := experiments.JobRequest{Phases: d.phases}
	switch {
	case len(d.Members.Live()) == 0:
		d.ctr.AddInt("local", 1)
	case j.Spec.IsIsland():
		req.RunIslands = func(ctx context.Context, spec evolve.IslandSpec) (*evolve.IslandRun, error) {
			return d.runIslandsOnFleet(ctx, spec, j.Spec.key().String()+"@"+j.ID)
		}
	default:
		return d.dispatch(ctx, j, sink)
	}
	return resolve(ctx, j, sink, req)
}

// registerDispatch publishes a placed job for Rebalance to see.
func (d *Dispatcher) registerDispatch(jobID string, ld *liveDispatch) {
	d.mu.Lock()
	d.live[jobID] = ld
	d.mu.Unlock()
}

func (d *Dispatcher) unregisterDispatch(jobID string) {
	d.mu.Lock()
	delete(d.live, jobID)
	d.mu.Unlock()
}

// Rebalance re-routes still-queued remote jobs whose consistent-hash
// owner changed — the membership OnChange hook calls it when a worker
// joins, dies, or revives. Only queued jobs move: a running job has
// progress worth keeping where it is, while a queued one has none to
// lose and its new owner may already hold the key's checkpoint or
// store entry. The race with the remote scheduler (the job starts
// between the state probe and the cancel) is benign — the job
// checkpoints at its next generation boundary and the new owner
// resumes from that orphan.
func (d *Dispatcher) Rebalance() {
	if d.Members == nil {
		// The hook can be wired before the registry is assigned.
		return
	}
	d.ensure()
	d.mu.Lock()
	placed := make([]*liveDispatch, 0, len(d.live))
	for _, ld := range d.live {
		placed = append(placed, ld)
	}
	d.mu.Unlock()
	for _, ld := range placed {
		d.maybeRebalance(ld)
	}
}

// maybeRebalance moves one placed job to its current ring owner when
// the key no longer belongs to the worker it was placed on and the
// remote job has not started. Called by the membership-change pass for
// every placed job, and by runOn right after placement — the double
// check that closes the race between placing a job and a concurrent
// join (whichever side runs second sees the other's state).
func (d *Dispatcher) maybeRebalance(ld *liveDispatch) {
	owner, ok := d.Members.Owner(ld.key)
	if !ok || owner.ID == ld.workerID || ld.rebalanced.Load() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	st, err := ld.cl.Job(ctx, ld.remoteID)
	if err != nil || st.State != StateQueued {
		return
	}
	ld.rebalanced.Store(true)
	ld.cl.Cancel(ctx, ld.remoteID)
	d.ctr.AddInt("rebalanced", 1)
}

// dispatch runs one job on its ring owner with failover. Stream state
// (last generation seen, best fitness, generations forwarded) lives
// across attempts so a re-dispatched worker's history replay is
// deduplicated and the outcome reflects the whole job.
func (d *Dispatcher) dispatch(ctx context.Context, j *Job, sink hwsim.Sink) (Outcome, error) {
	lastGen := -1
	forwarded := 0
	var best float64
	var lastErr error
	for attempt := 0; attempt < dispatchAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
		owner, ok := d.Members.Owner(j.Spec.key().String())
		if !ok {
			return Outcome{}, errors.New("serve: no live workers in the fleet")
		}
		out, err := d.runOn(ctx, owner, j, sink, &lastGen, &forwarded, &best)
		if err == nil {
			return out, nil
		}
		if ctx.Err() != nil {
			return Outcome{}, err
		}
		if errors.Is(err, errRebalanced) {
			// The coordinator moved the still-queued job off a healthy
			// worker; retry resolves the new ring owner. No failure is
			// reported — nothing is wrong with the old worker.
			lastErr = err
			continue
		}
		var fail *workerFailure
		if !errors.As(err, &fail) {
			// The job itself failed on a healthy worker; re-dispatching
			// the same deterministic computation would fail the same way.
			return Outcome{}, err
		}
		lastErr = err
		d.Members.ReportFailure(owner.ID)
		d.ctr.AddInt("redispatched", 1)
	}
	return Outcome{}, fmt.Errorf("serve: dispatch failed after %d attempts: %w", dispatchAttempts, lastErr)
}

// runOn executes the job on one worker: submit, watch the stream to
// completion (forwarding records beyond lastGen), fetch the outcome.
func (d *Dispatcher) runOn(ctx context.Context, owner cluster.Member, j *Job, sink hwsim.Sink, lastGen *int, forwarded *int, best *float64) (Outcome, error) {
	cl := &Client{
		Base: owner.Addr,
		HTTP: d.http(),
		Name: "(coordinator)",
		// A small budget smooths worker restarts and momentary sheds;
		// persistent failure surfaces fast so failover can run.
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 500 * time.Millisecond},
	}
	d.ctr.AddInt("dispatched", 1)
	d.track(owner.ID, +1)
	defer d.track(owner.ID, -1)

	spec := j.Spec
	spec.Client = "(coordinator)"
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		return Outcome{}, &workerFailure{err}
	}
	ld := &liveDispatch{key: j.Spec.key().String(), workerID: owner.ID, remoteID: st.ID, cl: cl}
	d.registerDispatch(j.ID, ld)
	defer d.unregisterDispatch(j.ID)
	// A membership change between Owner and this registration would
	// have run its rebalance pass without seeing this job — re-check
	// the ring now that the placement is visible.
	d.maybeRebalance(ld)
	// Cancelling the coordinator job cancels the remote one, freeing
	// the worker's slot (and letting it checkpoint) promptly.
	stop := context.AfterFunc(ctx, func() {
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
		defer cancel()
		cl.Cancel(cctx, st.ID)
	})
	defer stop()

	final, err := cl.Watch(ctx, st.ID, func(rec hwsim.Record) error {
		if rec.Generation <= *lastGen {
			return nil // duplicate from a post-failover history replay
		}
		*lastGen = rec.Generation
		noteGeneration(j.Spec, rec, forwarded, best)
		sink.Record(rec)
		return nil
	})
	if err != nil {
		return Outcome{}, &workerFailure{err}
	}
	switch final.State {
	case StateDone:
		out := Outcome{
			Solved:   final.Solved,
			Computed: !final.Shared,
			Resumed:  final.Resumed,
			Stored:   final.Stored,
			Best:     max(*best, final.BestFitness),
			Gens:     *forwarded,
		}
		if out.Gens == 0 {
			out.Gens = final.Generations
		}
		return out, nil
	case StateCancelled:
		if ld.rebalanced.Load() {
			// The coordinator itself cancelled the queued remote job
			// because its ring owner changed: retry on the new owner
			// without blaming this (healthy) worker.
			return Outcome{}, errRebalanced
		}
		// The coordinator did not cancel (its context is alive — a
		// cancelled context surfaces as a Watch error above), so the
		// worker cancelled on its own: it is draining. The job
		// checkpointed at a generation boundary; fail over so another
		// worker resumes it.
		return Outcome{}, &workerFailure{fmt.Errorf("serve: worker %s cancelled job %s (draining): %s", owner.ID, st.ID, final.Error)}
	default:
		return Outcome{}, fmt.Errorf("serve: worker job %s on %s %s: %s", st.ID, owner.ID, final.State, final.Error)
	}
}

// runIslandsOnFleet computes one island run across the live workers —
// the island kind's fleet hook — restarting on the survivors when a
// shard's worker dies (the run is deterministic, so the fleet shape
// never changes the result). Should the whole fleet die, the
// coordinator finishes the run itself.
func (d *Dispatcher) runIslandsOnFleet(ctx context.Context, spec evolve.IslandSpec, session string) (*evolve.IslandRun, error) {
	var lastErr error
	for attempt := 0; attempt < dispatchAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		workers := d.Members.Live()
		if len(workers) == 0 {
			d.ctr.AddInt("local", 1)
			return evolve.RunIslands(ctx, spec)
		}
		d.ctr.AddInt("island_distributed", 1)
		run, err := cluster.RunDistributed(ctx, spec, session, workers, d.http())
		if err == nil {
			return run, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
		var shard *cluster.ShardError
		if !errors.As(err, &shard) {
			return nil, err
		}
		d.Members.ReportFailure(shard.Member.ID)
		d.ctr.AddInt("redispatched", 1)
	}
	return nil, fmt.Errorf("serve: island dispatch failed after %d attempts: %w", dispatchAttempts, lastErr)
}
