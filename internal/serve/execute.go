package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
)

// localExecutor is the default Executor: it runs jobs in-process
// through the experiment harness's shared run cache, exactly as the
// single-process daemon always has. Fleet workers use it too — the
// only difference is a WorkerID suffixing their checkpoint files.
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
// checkpoint paths; island and Pareto runs are deterministic end to
// end, so interruption means recomputation — the store tier still
// dedupes across restarts.
func (e *localExecutor) Execute(ctx context.Context, j *Job, sink hwsim.Sink) (Outcome, error) {
	req := experiments.JobRequest{
		Parallelism: e.cfg.RunnerParallelism,
		Phases:      e.phases,
	}
	if e.cfg.CheckpointDir != "" {
		key := j.Spec.key().String()
		req.CheckpointPath = checkpointFile(e.cfg.CheckpointDir, key, e.cfg.WorkerID)
		req.CheckpointEvery = e.cfg.CheckpointEvery
		// Resume from the freshest checkpoint of this key regardless of
		// which worker wrote it — the failover path: a re-dispatched job
		// picks up the dead worker's orphan.
		if resume, ok := findResume(e.cfg.CheckpointDir, key); ok && resume != req.CheckpointPath {
			req.ResumeFromPath = resume
		}
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

// checkpointFile names the checkpoint a job writes: the cache key,
// plus an owner suffix when the process has a WorkerID, so fleet
// workers sharing a checkpoint directory never interleave writes into
// one file. '~' cannot appear in a canonical key, so the suffix parses
// back unambiguously (store.ParseKeyFilename strips it).
func checkpointFile(dir, key, owner string) string {
	name := key
	if owner != "" {
		name += "~" + owner
	}
	return filepath.Join(dir, name+".ckpt")
}

// findResume locates the freshest checkpoint for key in dir — the
// unowned "<key>.ckpt" or any owner's "<key>~<owner>.ckpt" — so a
// job re-dispatched after a worker death resumes from the orphan the
// dead worker left behind, whoever wrote it.
func findResume(dir, key string) (string, bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false
	}
	var best string
	var bestMod int64
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		base, ok := strings.CutSuffix(name, ".ckpt")
		if !ok {
			continue
		}
		if owned, hasOwner := strings.CutPrefix(base, key+"~"); hasOwner {
			if owned == "" || strings.ContainsAny(owned, "/\\") {
				continue
			}
		} else if base != key {
			continue
		}
		info, ierr := ent.Info()
		if ierr != nil {
			continue
		}
		if mod := info.ModTime().UnixNano(); best == "" || mod > bestMod {
			best = filepath.Join(dir, name)
			bestMod = mod
		}
	}
	return best, best != ""
}
