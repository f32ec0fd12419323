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
}

func newLocalExecutor(cfg Config) *localExecutor {
	return &localExecutor{cfg: cfg, phases: hwsim.New("phases")}
}

// Counters exposes the executor's phase-accounting node; the scheduler
// mounts it into the daemon's /metrics registry via the same adoption
// seam the cluster Dispatcher uses.
func (e *localExecutor) Counters() *hwsim.Counters { return e.phases }

// Execute resolves one job of any kind through the shared run tier,
// streaming records through sink either live (cache miss) or by
// replaying the memoized run (hit). Only scalar runs use the
// checkpoint file; island and Pareto runs are deterministic end to
// end, so interruption means recomputation — the store tier still
// dedupes across restarts. A key's checkpoint has one name in every
// process, so a job re-dispatched to this worker resumes from the file
// its previous owner left in a shared directory.
func (e *localExecutor) Execute(ctx context.Context, j *Job, sink hwsim.Sink) (Outcome, error) {
	req := experiments.JobRequest{
		Parallelism: e.cfg.RunnerParallelism,
		Phases:      e.phases,
	}
	if e.cfg.CheckpointDir != "" {
		req.CheckpointPath = store.CheckpointPath(e.cfg.CheckpointDir, j.Spec.key())
		req.CheckpointEvery = e.cfg.CheckpointEvery
	}
	return resolve(ctx, j, sink, req)
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
