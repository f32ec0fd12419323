package serve

import (
	"context"

	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// localExecutor is the default Executor: it runs jobs in-process
// through the experiment harness's shared run cache, exactly as the
// single-process daemon always has. Fleet workers use it unchanged.
type localExecutor struct {
	cfg Config
	// phases aggregates per-phase generation wall-clock
	// (evaluate/speciate/reproduce) across every cache-miss run this
	// executor computes; the scheduler adopts it into the /metrics tree.
	phases *hwsim.Counters
	// ckpts is the checkpoint handle jobs save through; nil disables
	// checkpointing.
	ckpts *store.Checkpoints
}

func newLocalExecutor(cfg Config) *localExecutor {
	e := &localExecutor{cfg: cfg, phases: hwsim.New("phases")}
	if cfg.CheckpointDir != "" {
		e.ckpts = store.NewCheckpoints(cfg.CheckpointDir, store.OSFS{})
		if cfg.Store != nil && cfg.Store.Checkpoints() != nil {
			// The store's handle: its FS seam covers checkpoint I/O, and
			// its GC and Recover see the same files.
			e.ckpts = cfg.Store.Checkpoints()
		}
	}
	return e
}

// Counters exposes the executor's phase-accounting node; the scheduler
// mounts it into the daemon's /metrics registry via the same adoption
// seam the cluster Dispatcher uses.
func (e *localExecutor) Counters() *hwsim.Counters { return e.phases }

// Execute resolves one job of any kind through the shared run tier,
// streaming records through sink either live (cache miss) or by
// replaying the memoized run (hit). Only scalar runs checkpoint;
// island and Pareto runs are deterministic end to end, so interruption
// means recomputation — the store tier still dedupes across restarts.
// A key's checkpoint has one name in every process, so a job
// re-dispatched to this worker resumes from the file its previous
// owner left in a shared directory.
func (e *localExecutor) Execute(ctx context.Context, j *Job, sink hwsim.Sink) (Outcome, error) {
	return resolve(ctx, j, sink, experiments.JobRequest{
		Parallelism:     e.cfg.RunnerParallelism,
		Phases:          e.phases,
		Checkpoints:     e.ckpts,
		CheckpointEvery: e.cfg.CheckpointEvery,
	})
}

// resolve runs one job in-process through experiments.Resolve — the
// local executor's path and the coordinator's own compute path.
func resolve(ctx context.Context, j *Job, sink hwsim.Sink, req experiments.JobRequest) (Outcome, error) {
	req.Key = j.Spec.key()
	req.Ctx = ctx
	req.Sink = sink
	req.OnRunner = j.PublishRunner
	return experiments.Resolve(req)
}
