package evolve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/env"
	"repro/internal/gene"
	"repro/internal/hw/hwsim"
	"repro/internal/neat"
	"repro/internal/network"
)

// GenStats is the per-generation characterization record: everything
// Section III plots, plus the inference-work totals the platform and
// hardware models charge for.
type GenStats struct {
	Generation int

	// Fitness metrics (raw and Fig. 4a-normalized).
	MaxFitness  float64
	MeanFitness float64
	NormMax     float64
	NormMean    float64
	Solved      bool

	// Population structure (Fig. 4b, Fig. 11a, Fig. 5b).
	TotalGenes     int
	NodeGenes      int
	ConnGenes      int
	FootprintBytes int
	NumSpecies     int

	// Reproduction characterization (Fig. 5a, Fig. 4c).
	CrossoverOps       int64
	MutationOps        int64
	FittestParentReuse int
	MaxParentReuse     int

	// Inference work of the evaluation phase: environment steps summed
	// over the population, and the MAC count those steps performed
	// (edges × steps per genome), the quantities Fig. 9a/9b charge.
	EnvSteps      int64
	InferenceMACs int64
	// VertexUpdates is the number of node evaluations performed.
	VertexUpdates int64
}

// CounterReport renders the stats as a hwsim report node named
// "evolve" — the structured-row form per-generation records flow
// through to stats and the CLIs.
func (st GenStats) CounterReport() hwsim.Report {
	return hwsim.Report{
		Name: "evolve",
		Ints: map[string]int64{
			"solved":               boolInt(st.Solved),
			"total_genes":          int64(st.TotalGenes),
			"node_genes":           int64(st.NodeGenes),
			"conn_genes":           int64(st.ConnGenes),
			"footprint_bytes":      int64(st.FootprintBytes),
			"num_species":          int64(st.NumSpecies),
			"crossover_ops":        st.CrossoverOps,
			"mutation_ops":         st.MutationOps,
			"fittest_parent_reuse": int64(st.FittestParentReuse),
			"max_parent_reuse":     int64(st.MaxParentReuse),
			"env_steps":            st.EnvSteps,
			"inference_macs":       st.InferenceMACs,
			"vertex_updates":       st.VertexUpdates,
		},
		Floats: map[string]float64{
			"max_fitness":  st.MaxFitness,
			"mean_fitness": st.MeanFitness,
			"norm_max":     st.NormMax,
			"norm_mean":    st.NormMean,
		},
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Runner evolves one workload, recording per-generation statistics and
// (optionally) a reproduction trace.
type Runner struct {
	Workload Workload
	Pop      *neat.Population
	// History accumulates one GenStats per evaluated generation.
	History []GenStats
	// Parallelism caps the evaluation worker pool (population-level
	// parallelism); 0 means GOMAXPROCS.
	Parallelism int
	// Sink, when set, receives one hwsim.Record per completed
	// generation (the GenStats counter tree), tagged with the workload
	// name.
	Sink hwsim.Sink
	// CheckpointPath, together with CheckpointEvery, makes Run persist
	// the population to this file at generation boundaries (atomic
	// temp-file + rename, so a crash mid-write never corrupts the last
	// good checkpoint) and on context cancellation.
	CheckpointPath string
	// CheckpointEvery is the checkpoint interval in generations; 0
	// disables periodic checkpoints.
	CheckpointEvery int
	// TrackChampion makes every Step clone the generation's best genome
	// post-evaluation (before reproduction replaces the population), so
	// island-model migration can export it after the fact; see Champion.
	TrackChampion bool
	// Phases, when set, receives per-phase wall-clock accounting from
	// every Step: evaluate_ns / speciate_ns / reproduce_ns accumulated
	// across generations, plus a generations count, and checkpoint_ns
	// for every checkpoint Run saves. Wall-clock is
	// host-dependent by nature, so it lives only in this live counter
	// node (surfaced through /metrics) and is deliberately kept out of
	// GenStats and the per-generation record stream, which are pinned
	// byte-identical across hosts and replays.
	Phases *hwsim.Counters
	// Objectives, when non-empty, switches the runner into Pareto
	// (multi-objective) mode: every Step ranks the evaluated population
	// with the NSGA-II machinery over this objective vector and shapes
	// selection from the resulting total order; the rank-0 front is
	// captured per generation (see Front). Empty keeps the scalar path
	// byte-identical — no moea code runs. See pareto.go.
	Objectives []string

	// champion is the latest tracked best genome (TrackChampion).
	champion *gene.Genome
	// front is the latest generation's Pareto front (Objectives mode).
	front []ParetoPoint

	name     string
	opCounts neat.OpCounts
	seed     uint64
	extraRec neat.Recorder
	// ckptReq is the cross-goroutine checkpoint request flag; see
	// RequestCheckpoint.
	ckptReq atomic.Bool
	// batchWidth caps the batch engine's lanes (the episodes one worker
	// advances in lock-step); 0 means defaultBatchWidth. Results are
	// identical at every width; tests narrow it to force lane backfill
	// and swap-retire.
	batchWidth int

	// workers is the persistent population-level-parallelism pool: one
	// slot per evaluation worker, each owning an environment instance
	// and its batch resources. Slots are created lazily on the first
	// EvaluateGeneration and live for the runner's lifetime, so
	// generations after the first pay no environment construction.
	workers []*evalWorker
	// builder is the compile scratch of formGroups and refine, which
	// both run on the runner's own goroutine.
	builder network.Builder
	// phenos caches compiled phenotypes across generations keyed on the
	// genome version stamp — the software form of the paper's
	// genome-level reuse: elites and champions carry their parent's
	// stamp and skip recompilation.
	phenos network.Cache
	// Batch-dispatch scratch, reused across generations so steady-state
	// evaluation allocates nothing: per-(genome, episode) fitness slots,
	// the LPT job list, topology groups (with their member slices), and
	// the TopoKey bucket index.
	perEpScratch []float64
	jobScratch   []batchJob
	groupScratch []evalGroup
	bucketIdx    map[uint64][]int
}

// evalWorker is one persistent slot of the evaluation pool. env runs
// per-episode jobs (groups too small to batch); the rest are the batch
// engine's per-worker resources, created lazily by ensureBatch and
// reused across generations (zero-alloc steady state).
type evalWorker struct {
	env env.Env

	// laneSets holds the batch rollout state (vectorized env + planes)
	// per quantized lane width; widths recur across generations, so the
	// map converges to a handful of entries and stops allocating.
	laneSets map[int]*laneSet
	// netSlots caches one loaded BatchProgram (+state) per (phenotype
	// topology, width), bucketed by TopoKey with structural
	// confirmation, and swept generationally like the phenotype cache.
	netSlots map[uint64][]*netSlot
}

// NewRunner builds a population configured for the workload's
// environment dimensions and wires up the op-count recorder.
func NewRunner(workloadName string, cfg neat.Config, seed uint64) (*Runner, error) {
	w, err := WorkloadByName(workloadName)
	if err != nil {
		return nil, err
	}
	probe, err := env.New(w.EnvName)
	if err != nil {
		return nil, err
	}
	cfg.NumInputs = probe.ObservationSize()
	cfg.NumOutputs = probe.ActionSize()
	pop, err := neat.NewPopulation(cfg, seed)
	if err != nil {
		return nil, err
	}
	return newRunner(w, workloadName, pop, seed), nil
}

// RestoreRunner builds a runner around the population document in
// data (neat.Restore's format) instead of a fresh population: no seed
// population is built only to be replaced. Because the document
// carries the PRNG stream and evaluation seeds derive from (seed,
// generation, genome, episode), the restored run continues
// bit-identically to the uninterrupted one. The runner does not
// retain data.
func RestoreRunner(workloadName string, data []byte, seed uint64) (*Runner, error) {
	w, err := WorkloadByName(workloadName)
	if err != nil {
		return nil, err
	}
	pop, err := neat.Restore(data)
	if err != nil {
		return nil, err
	}
	return newRunner(w, workloadName, pop, seed), nil
}

// ResumeRunner is RestoreRunner over the checkpoint file at path when
// one exists, and NewRunner otherwise (an empty path included);
// resumed reports which. A checkpoint that does not restore is removed
// and the run starts fresh: kept, it would fail every retry of its key
// until garbage collection aged it out, and the run is deterministic,
// so recomputing it costs time but never changes the result.
func ResumeRunner(workloadName string, cfg neat.Config, seed uint64, path string) (r *Runner, resumed bool, err error) {
	if data, rerr := os.ReadFile(path); rerr == nil {
		if r, err = RestoreRunner(workloadName, data, seed); err == nil {
			return r, true, nil
		}
		os.Remove(path)
	}
	r, err = NewRunner(workloadName, cfg, seed)
	return r, false, err
}

// newRunner wires a runner and its op-count recorder around pop.
func newRunner(w Workload, name string, pop *neat.Population, seed uint64) *Runner {
	r := &Runner{Workload: w, Pop: pop, name: name, seed: seed}
	pop.SetRecorder(&r.opCounts)
	return r
}

// SetRecorder attaches an additional reproduction recorder (e.g. a
// hardware trace) alongside the internal op counter.
func (r *Runner) SetRecorder(rec neat.Recorder) {
	r.extraRec = rec
	r.Pop.SetRecorder(neat.MultiRecorder(&r.opCounts, rec))
}

// evalResult is the outcome of one episode (runEpisode) or of all of
// a genome's episodes (runEpisodes).
type evalResult struct {
	fitness float64
	steps   int64
	macs    int64
	updates int64
	err     error
}

// ensureWorkers grows the persistent pool to at least n slots, building
// each new slot's environment once.
func (r *Runner) ensureWorkers(n int) error {
	for len(r.workers) < n {
		e, err := env.New(r.Workload.EnvName)
		if err != nil {
			return err
		}
		r.workers = append(r.workers, &evalWorker{env: e})
	}
	return nil
}

// PhenoCache exposes the runner's compiled-phenotype reuse cache
// (tests, diagnostics).
func (r *Runner) PhenoCache() *network.Cache { return &r.phenos }

// ReleaseEvalState drops the runner's evaluation machinery — the
// persistent worker pool with its environments, batch planes, lane
// sets, and network slots; the compiled-phenotype cache; and the
// compile, dispatch and group scratch — while leaving the result
// surface (History, Pop, ScoreGenome, the trace already recorded)
// fully usable.
// Everything released here is rebuilt lazily if the runner evaluates
// again, so the only cost of calling it too eagerly is a warm-up
// generation. Long-lived caches of finished runs call this so a
// retained entry costs its history and population, not the whole
// evaluation engine: on a busy daemon the batch planes of hundreds of
// completed jobs would otherwise stay live and turn every GC cycle
// into a scan of dead scratch.
func (r *Runner) ReleaseEvalState() {
	r.workers = nil
	r.builder = network.Builder{}
	r.phenos.Reset()
	r.perEpScratch = nil
	r.jobScratch = nil
	r.groupScratch = nil
	r.bucketIdx = nil
}

// ScoreGenome re-evaluates one genome on the runner's workload with
// the runner's deterministic episode seeds, without touching the
// population, the worker pool, or the phenotype cache — safe to call
// concurrently on a finished run whose artifacts are shared (the
// experiment harness's run cache hands one evolved runner to many
// figure generators). The returned fitness is exactly what
// EvaluateGeneration would assign the genome at the current generation
// boundary: the same per-(generation, genome, episode) seeds, episode
// fitnesses summed in episode order.
func (r *Runner) ScoreGenome(ctx context.Context, g *gene.Genome) (fitness float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	e, err := env.New(r.Workload.EnvName)
	if err != nil {
		return 0, err
	}
	defer func() {
		if p := recover(); p != nil {
			fitness, err = 0, fmt.Errorf("genome %d: evaluation panic: %v", g.ID, p)
		}
	}()
	net, err := new(network.Builder).Build(g)
	if err != nil {
		return 0, fmt.Errorf("genome %d: %w", g.ID, err)
	}
	res := r.runEpisodes(net, e, g)
	return res.fitness, res.err
}

// safeEvaluateEpisode runs one per-episode job — a (genome, episode)
// unit of a topology group too small to batch — on the program
// formGroups fetched for the genome, and shields the worker pool from a
// panicking fitness evaluation: the panic surfaces as that episode's
// evaluation error instead of unwinding the worker goroutine and
// killing the process.
func (r *Runner) safeEvaluateEpisode(w *evalWorker, g *gene.Genome, prog network.Program, ep int) (res evalResult) {
	defer func() {
		if p := recover(); p != nil {
			res = evalResult{err: fmt.Errorf("genome %d: evaluation panic: %v", g.ID, p)}
		}
	}()
	return r.runEpisode(prog.Instantiate(), w.env, g, ep)
}

// runEpisode scores one compiled phenotype over one workload episode.
// The inner step loop is allocation-free: Feed reuses the instance's
// output buffer and the environments reuse their observation buffers.
func (r *Runner) runEpisode(net *network.Network, e env.Env, g *gene.Genome, ep int) evalResult {
	obs := e.Reset(r.episodeSeed(g, ep))
	steps := 0
	var sum float64
	for {
		action, ferr := net.Feed(obs)
		if ferr != nil {
			return evalResult{err: fmt.Errorf("genome %d: %w", g.ID, ferr)}
		}
		var reward float64
		var done bool
		obs, reward, done = e.Step(action)
		sum += reward
		steps++
		if done {
			break
		}
	}
	var res evalResult
	res.fitness = r.Workload.Fitness(e, steps, sum)
	// Per-step inference work is constant for a fixed phenotype, so the
	// ledger is a multiply per episode, not adds per step.
	res.steps = int64(steps)
	res.macs = int64(steps) * int64(net.NumEdges())
	res.updates = int64(steps) * int64(net.NumVertices()-net.NumInputs())
	return res
}

// episodeSeed is the deterministic per-(generation, genome, episode)
// environment seed. It depends on nothing about the schedule, so any
// worker or lane that runs the episode reproduces the same stream.
func (r *Runner) episodeSeed(g *gene.Genome, ep int) uint64 {
	return r.seed ^ uint64(r.Pop.Generation)<<40 ^ uint64(g.ID)<<8 ^ uint64(ep)
}

// runEpisodes scores one compiled phenotype over all of the workload's
// episodes serially — the single-genome path Lamarckian refinement uses.
func (r *Runner) runEpisodes(net *network.Network, e env.Env, g *gene.Genome) evalResult {
	var res evalResult
	var total float64
	episodes := r.Workload.Episodes
	if episodes < 1 {
		episodes = 1
	}
	for ep := 0; ep < episodes; ep++ {
		er := r.runEpisode(net, e, g, ep)
		if er.err != nil {
			return er
		}
		total += er.fitness
		res.steps += er.steps
		res.macs += er.macs
		res.updates += er.updates
	}
	res.fitness = total / float64(episodes)
	return res
}

// Step evaluates the current generation and, unless it solved the task,
// reproduces the next one. It appends and returns the generation's
// stats. A cancelled ctx aborts the evaluation between episodes and
// surfaces ctx.Err(); the population is left un-reproduced, so the
// generation re-evaluates deterministically on resume.
func (r *Runner) Step(ctx context.Context) (GenStats, error) {
	evalStart := time.Now()
	envSteps, macs, updates, err := r.EvaluateGeneration(ctx)
	if err != nil {
		return GenStats{}, err
	}
	return r.finishGeneration(envSteps, macs, updates, time.Since(evalStart))
}

// finishGeneration is Step after evaluation: it takes the generation's
// stats from the scored population and its inference work, applies
// Pareto shaping, reproduces unless the task is solved, charges the
// phase counters (evalDur as evaluate_ns), and appends the stats to
// History and the Sink.
func (r *Runner) finishGeneration(envSteps, macs, updates int64, evalDur time.Duration) (GenStats, error) {
	w := r.Workload
	best := r.Pop.Best()
	if r.TrackChampion {
		// Clone at the evaluation boundary: Epoch below may retire the
		// genome, and the exported champion must be the scored individual,
		// not a mutated descendant.
		r.champion = best.Clone()
	}
	nodes, conns := r.Pop.GeneComposition()
	st := GenStats{
		Generation:     r.Pop.Generation,
		MaxFitness:     best.Fitness,
		MeanFitness:    r.Pop.MeanFitness(),
		TotalGenes:     r.Pop.TotalGenes(),
		NodeGenes:      nodes,
		ConnGenes:      conns,
		FootprintBytes: r.Pop.FootprintBytes(),
		EnvSteps:       envSteps,
		InferenceMACs:  macs,
		VertexUpdates:  updates,
	}
	st.NormMax = w.Normalize(st.MaxFitness)
	st.NormMean = w.Normalize(st.MeanFitness)
	st.Solved = st.MaxFitness >= w.Target

	if len(r.Objectives) > 0 {
		// Pareto mode: rank the evaluated population and shape selection
		// from the NSGA-II total order. Stats above were already taken
		// from the task fitness, so records and Solved stay meaningful;
		// shaping is skipped on the final (solved) generation, whose
		// population is never reproduced.
		if err := r.applyPareto(!st.Solved); err != nil {
			return GenStats{}, err
		}
	}

	var speciateDur, reproduceDur time.Duration
	if !st.Solved {
		r.opCounts.Reset()
		// The epoch rides the same parallelism budget as the evaluation
		// pool: its distance pass fans out over bounded workers while
		// assignment and reproduction stay serial (outputs identical at
		// every setting).
		epochWorkers := r.Parallelism
		if mp := runtime.GOMAXPROCS(0); epochWorkers <= 0 || epochWorkers > mp {
			epochWorkers = mp
		}
		r.Pop.EpochParallelism = epochWorkers
		epochStart := time.Now()
		repro, err := r.Pop.Epoch()
		if err != nil {
			return GenStats{}, err
		}
		epochDur := time.Since(epochStart)
		speciateDur = repro.SpeciateDur
		reproduceDur = epochDur - speciateDur
		st.NumSpecies = repro.NumSpecies
		st.CrossoverOps = r.opCounts.Crossovers()
		st.MutationOps = r.opCounts.Mutations()
		st.FittestParentReuse = repro.FittestParentReuse
		st.MaxParentReuse = repro.MaxParentReuse
	}
	if r.Phases != nil {
		r.Phases.AddInt("generations", 1)
		r.Phases.AddInt("evaluate_ns", evalDur.Nanoseconds())
		r.Phases.AddInt("speciate_ns", speciateDur.Nanoseconds())
		r.Phases.AddInt("reproduce_ns", reproduceDur.Nanoseconds())
	}

	r.History = append(r.History, st)
	if r.Sink != nil {
		r.Sink.Record(hwsim.Record{
			Workload:   r.name,
			Generation: st.Generation,
			Report:     st.CounterReport(),
		})
	}
	return st, nil
}

// RequestCheckpoint asks a Run in progress to persist the population
// at the next generation boundary. It is the only checkpoint entry
// point that is safe to call from another goroutine while Run is
// executing: the save itself still happens on the Run goroutine,
// between Step calls, where the population is quiescent — so the
// written checkpoint is always a consistent boundary snapshot and the
// call is race-free by construction. A no-op when CheckpointPath is
// unset. This is what lets a serving layer checkpoint a live job on
// demand without stopping it.
func (r *Runner) RequestCheckpoint() { r.ckptReq.Store(true) }

// Run executes steps until the population reaches maxGenerations,
// stopping early when the target fitness is reached or ctx is
// cancelled. The loop is bounded by the population's own generation
// counter (not a local one), so a runner restored from a checkpoint
// continues where the interrupted run stopped rather than replaying
// the full budget. It reports whether the task was solved; a
// cancellation returns ctx.Err() after a final checkpoint (when
// checkpointing is configured), so the run can resume at the exact
// boundary it was cut at.
func (r *Runner) Run(ctx context.Context, maxGenerations int) (bool, error) {
	for r.Pop.Generation < maxGenerations {
		if err := ctx.Err(); err != nil {
			if r.CheckpointPath != "" {
				if serr := r.checkpoint(); serr != nil {
					return false, errors.Join(err, serr)
				}
			}
			return false, err
		}
		st, err := r.Step(ctx)
		if err != nil {
			// A cancellation mid-evaluation leaves the population at the
			// same pre-Epoch boundary as the pre-step check above (the
			// PRNG is untouched during evaluation), so the checkpoint
			// resumes bit-identically by re-evaluating the generation.
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) && r.CheckpointPath != "" {
				if serr := r.checkpoint(); serr != nil {
					return false, errors.Join(err, serr)
				}
			}
			return false, err
		}
		if st.Solved {
			return true, nil
		}
		// No checkpoint at the budget: the run is over, and the caller
		// deletes the file once the result is safe. One saved there
		// would, after a crash before that, resume a finished run.
		periodic := r.CheckpointEvery > 0 && r.Pop.Generation%r.CheckpointEvery == 0
		requested := r.ckptReq.Swap(false)
		if r.CheckpointPath != "" && r.Pop.Generation < maxGenerations && (periodic || requested) {
			if err := r.checkpoint(); err != nil {
				return false, fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	return false, nil
}

// checkpoint saves to CheckpointPath, charging the time to Phases.
func (r *Runner) checkpoint() error {
	start := time.Now()
	err := r.SaveCheckpoint(r.CheckpointPath)
	if r.Phases != nil {
		r.Phases.AddInt("checkpoint_ns", time.Since(start).Nanoseconds())
	}
	return err
}

// SaveCheckpoint atomically persists the population state: the
// document neat's Save returns is written to a staging file of this
// save's own ("<name>.tmp<random>" in the target directory) and
// renamed over path, so an interrupted save leaves the previous
// checkpoint intact and any number of processes may save to one path
// at once: each rename installs one complete checkpoint, and a reader
// never sees a mix of two. A population that does not save (a NaN
// fitness, say) fails before any file is made.
func (r *Runner) SaveCheckpoint(path string) error {
	data, err := r.Pop.Save()
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		// CreateTemp makes the file 0600; workers sharing the
		// directory must be able to resume from each other's saves.
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Champion returns the clone of the best genome at the most recent
// evaluated generation, or nil when TrackChampion is off or no
// generation has been evaluated. The returned genome is owned by the
// caller — Step replaces the runner's copy rather than mutating it.
func (r *Runner) Champion() *gene.Genome { return r.champion }

// Last returns the most recent generation stats (zero value if none).
func (r *Runner) Last() GenStats {
	if len(r.History) == 0 {
		return GenStats{}
	}
	return r.History[len(r.History)-1]
}
