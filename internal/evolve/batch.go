package evolve

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/env"
	"repro/internal/network"
)

// This file is the batch-grained dispatch of EvaluateGeneration: the
// software realization of the paper's population-level parallelism.
// Instead of evaluating one (genome, episode) at a time, the runner
//
//  1. compiles every genome through the phenotype cache and groups the
//     population by topology (TopoKey + structural confirmation) —
//     NEAT populations are weight-mutation dominated, so groups are
//     large;
//  2. turns each group's (genome, episode) units into batch jobs of up
//     to defaultBatchWidth lanes, loads lanes with per-genome
//     parameters, and advances network + environment in lock-step
//     through struct-of-arrays planes;
//  3. retires a lane the step its episode finishes — backfilling the
//     next unit in place while units remain, then compacting the lane
//     out of the active prefix with swap-retire — so no lane ever
//     computes a dead episode.
//
// Every lane performs exactly the float and RNG operations of a serial
// episode-by-episode evaluation in the same order, episode fitness
// lands in per-(genome, episode) slots, and the final mean sums in
// episode order: results are byte-identical to the serial reference
// evaluator in differential_test.go, the executable specification.

// defaultBatchWidth is the lane cap: wide enough to keep the 4-lane
// vector exp kernel and plane streaming effective, small enough that
// per-worker planes stay cache-resident.
const defaultBatchWidth = 64

// minBatchUnits is the smallest group worth loading into the batch
// engine; below it a per-episode job (runEpisode) is cheaper than lane
// setup. At RAM scale (one episode, 2304-connection genomes) almost
// every group past the first generation is a singleton, so per-episode
// jobs carry nearly all of the evaluation there.
const minBatchUnits = 2

// batchWidthFor fits the lane width to a job's unit count: small
// groups get a dense plane (units rounded up to the 4-lane vector
// quantum, so rows stay contiguous and the exp kernel stays engaged)
// instead of rattling around a max-width one.
func batchWidthFor(units, max int) int {
	if units >= max {
		return max
	}
	w := (units + 3) &^ 3
	if w > max {
		return max
	}
	return w
}

// laneSet is one width-class of batch rollout state: a vectorized
// environment plus the per-lane bookkeeping the scheduler threads
// through it (its observation and action planes are rows of the
// network's batch state). Workers keep one per width (at most max/4 + 1,
// in practice a handful), so steady-state generations allocate
// nothing.
type laneSet struct {
	be        env.Batch
	rew       []float64 // per-lane step reward
	laneSum   []float64 // per-lane episode reward sum
	done      []bool    // per-lane episode-over flags
	laneSteps []int     // per-lane step counters
	laneUnit  []int     // per-lane unit index within the running group
}

// netSlot is one cached (BatchProgram, BatchState) pair for a
// (phenotype topology, width) class, reused across generations while
// the topology survives in the population.
type netSlot struct {
	exemplar network.Program
	width    int
	bp       *network.BatchProgram
	st       *network.BatchState
	used     bool
}

// evalGroup is one topology class of the current population.
type evalGroup struct {
	exemplar network.Program
	members  []int             // population indices, ascending
	progs    []network.Program // compiled program per member
}

// batchJob is one dispatch unit: either a lane-range of a group's
// episode units, or a single (genome, episode) evaluation for groups
// too small to batch.
type batchJob struct {
	group  int             // -1 for per-episode jobs
	lo, hi int             // unit range within the group (batch jobs)
	gIdx   int             // population index (per-episode jobs)
	prog   network.Program // the genome's program (per-episode jobs)
	ep     int             // episode (per-episode jobs)
	weight float64
}

// chunkResult carries one job's work ledger back to the dispatcher.
type chunkResult struct {
	steps   int64
	macs    int64
	updates int64
	err     error
}

// EvaluateGeneration scores every genome in the current population
// (steps 1–6 of the walkthrough) through the batch engine, exploiting
// population-level parallelism with the persistent worker pool. It
// returns aggregate inference work. Dispatch stops as soon as ctx is
// cancelled — in-flight jobs finish, queued jobs are never started,
// and ctx.Err() is returned — so an interrupt does not have to wait out
// a full generation of long episodes.
func (r *Runner) EvaluateGeneration(ctx context.Context) (envSteps, macs, updates int64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	genomes := r.Pop.Genomes
	episodes := r.Workload.Episodes
	if episodes < 1 {
		episodes = 1
	}
	workers := r.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Evaluation is CPU-bound: workers beyond the scheduler's
	// processors cannot overlap and only add context switches.
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if units := len(genomes) * episodes; workers > units {
		workers = units
	}
	if err := r.ensureWorkers(workers); err != nil {
		return 0, 0, 0, err
	}
	width := r.batchWidth
	if width <= 0 {
		width = defaultBatchWidth
	}

	groups, err := r.formGroups()
	if err != nil {
		return 0, 0, 0, err
	}
	jobs := r.makeJobs(groups, width, workers, episodes)
	// Every (genome, episode) slot is written exactly once before the
	// mean below reads it, so the scratch needs no zeroing.
	need := len(genomes) * episodes
	if cap(r.perEpScratch) < need {
		r.perEpScratch = make([]float64, need)
	}
	perEp := r.perEpScratch[:need]

	if workers == 1 {
		// Single-worker fast path: no goroutines, no channels; jobs run
		// in LPT order with a cancellation check between jobs.
		w := r.workers[0]
		w.ensureBatch()
		for _, jb := range jobs {
			if err := ctx.Err(); err != nil {
				return 0, 0, 0, err
			}
			cr := r.runJob(w, jb, groups, perEp, width, episodes)
			if cr.err != nil {
				return 0, 0, 0, cr.err
			}
			envSteps += cr.steps
			macs += cr.macs
			updates += cr.updates
		}
	} else {
		for i := 0; i < workers; i++ {
			r.workers[i].ensureBatch()
		}
		jobCh := make(chan batchJob)
		results := make(chan chunkResult, len(jobs))
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			w := r.workers[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for jb := range jobCh {
					results <- r.runJob(w, jb, groups, perEp, width, episodes)
				}
			}()
		}
	dispatch:
		for _, jb := range jobs {
			select {
			case <-ctx.Done():
				break dispatch
			case jobCh <- jb:
			}
		}
		close(jobCh)
		wg.Wait()
		close(results)
		for cr := range results {
			if cr.err != nil {
				return 0, 0, 0, cr.err
			}
			envSteps += cr.steps
			macs += cr.macs
			updates += cr.updates
		}
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
	}

	// Mean per genome, summing in episode order — the exact float
	// additions of a serial evaluation.
	for i, g := range genomes {
		var total float64
		for ep := 0; ep < episodes; ep++ {
			total += perEp[i*episodes+ep]
		}
		g.Fitness = total / float64(episodes)
	}
	r.phenos.Sweep()
	for _, w := range r.workers {
		w.sweepNetSlots()
	}
	return envSteps, macs, updates, nil
}

// formGroups compiles the population (through the phenotype cache) and
// partitions it into topology classes.
func (r *Runner) formGroups() ([]evalGroup, error) {
	genomes := r.Pop.Genomes
	// The group scratch (outer slice and each group's member slices) is
	// reused across generations; n counts the groups live this one. The
	// tail beyond n keeps last generation's Program handles alive until
	// the slots are reused — bounded by the peak group count, the price
	// of allocation-free steady state.
	groups := r.groupScratch
	n := 0
	if r.bucketIdx == nil {
		r.bucketIdx = make(map[uint64][]int, 16)
	}
	buckets := r.bucketIdx
	clear(buckets)
	for gi, g := range genomes {
		pr, err := r.phenos.GetProgram(&r.builder, g)
		if err != nil {
			return nil, fmt.Errorf("genome %d: %w", g.ID, err)
		}
		h := pr.TopoKey()
		placed := false
		for _, idx := range buckets[h] {
			if groups[idx].exemplar.SameTopology(pr) {
				groups[idx].members = append(groups[idx].members, gi)
				groups[idx].progs = append(groups[idx].progs, pr)
				placed = true
				break
			}
		}
		if !placed {
			buckets[h] = append(buckets[h], n)
			if n < len(groups) {
				g := &groups[n]
				g.exemplar = pr
				g.members = append(g.members[:0], gi)
				g.progs = append(g.progs[:0], pr)
			} else {
				groups = append(groups, evalGroup{
					exemplar: pr,
					members:  []int{gi},
					progs:    []network.Program{pr},
				})
			}
			n++
		}
	}
	r.groupScratch = groups
	return groups[:n], nil
}

// batchable reports whether a group can run through the batch engine:
// enough units to amortize lane setup, and network IO planes that line
// up with the environment's observation/action planes.
func (r *Runner) batchable(g *evalGroup, episodes int) bool {
	e := r.workers[0].env
	return len(g.members)*episodes >= minBatchUnits &&
		g.exemplar.NumInputs() == e.ObservationSize() &&
		g.exemplar.NumOutputs() == e.ActionSize()
}

// makeJobs turns topology groups into an LPT-ordered job list. Batch
// groups are split into lane-range chunks only as far as parallel
// balance requires (a chunk never drops below one full batch width, so
// backfill keeps lanes busy). A genome's carried-over fitness is the
// episode-length proxy (elites survive longest), so the longest jobs
// are dispatched first and no worker idles behind a straggler sent
// last.
func (r *Runner) makeJobs(groups []evalGroup, width, workers, episodes int) []batchJob {
	genomes := r.Pop.Genomes
	totalUnits := 0
	for gi := range groups {
		if r.batchable(&groups[gi], episodes) {
			totalUnits += len(groups[gi].members) * episodes
		}
	}
	chunkSize := totalUnits
	if workers > 1 {
		chunkSize = (totalUnits + workers*2 - 1) / (workers * 2)
	}
	if chunkSize < width {
		chunkSize = width
	}

	jobs := r.jobScratch[:0]
	for gi := range groups {
		g := &groups[gi]
		if !r.batchable(g, episodes) {
			for k, pi := range g.members {
				for ep := 0; ep < episodes; ep++ {
					jobs = append(jobs, batchJob{
						group: -1, gIdx: pi, prog: g.progs[k], ep: ep,
						weight: genomes[pi].Fitness,
					})
				}
			}
			continue
		}
		units := len(g.members) * episodes
		for lo := 0; lo < units; lo += chunkSize {
			hi := lo + chunkSize
			if hi > units {
				hi = units
			}
			var sum float64
			for u := lo; u < hi; u++ {
				sum += genomes[g.members[u/episodes]].Fitness
			}
			jobs = append(jobs, batchJob{group: gi, lo: lo, hi: hi, weight: sum})
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].weight > jobs[b].weight })
	r.jobScratch = jobs
	return jobs
}

// runJob executes one dispatch unit on one worker.
func (r *Runner) runJob(w *evalWorker, jb batchJob, groups []evalGroup, perEp []float64, width, episodes int) chunkResult {
	if jb.group < 0 {
		g := r.Pop.Genomes[jb.gIdx]
		res := r.safeEvaluateEpisode(w, g, jb.prog, jb.ep)
		if res.err != nil {
			return chunkResult{err: res.err}
		}
		perEp[jb.gIdx*episodes+jb.ep] = res.fitness
		return chunkResult{steps: res.steps, macs: res.macs, updates: res.updates}
	}
	return r.safeRunBatchRange(w, &groups[jb.group], jb.lo, jb.hi, perEp, width, episodes)
}

// ensureBatch initializes the worker's batch bookkeeping (idempotent;
// lane sets and net slots themselves are built lazily per width).
func (w *evalWorker) ensureBatch() {
	if w.netSlots == nil {
		w.netSlots = make(map[uint64][]*netSlot)
		w.laneSets = make(map[int]*laneSet)
	}
}

// ensureLaneSet returns the worker's rollout state for one lane width,
// building it on first sight and reusing it forever after (widths are
// quantized, so the map stays a handful of entries).
func (w *evalWorker) ensureLaneSet(r *Runner, width int) (*laneSet, error) {
	if ls := w.laneSets[width]; ls != nil {
		return ls, nil
	}
	be, err := env.NewBatch(r.Workload.EnvName, width)
	if err != nil {
		return nil, err
	}
	ls := &laneSet{
		be:        be,
		rew:       make([]float64, width),
		laneSum:   make([]float64, width),
		done:      make([]bool, width),
		laneSteps: make([]int, width),
		laneUnit:  make([]int, width),
	}
	w.laneSets[width] = ls
	return ls, nil
}

// ensureNetSlot returns the worker's cached batch evaluator for the
// group's topology at the given width, building one on first sight.
func (w *evalWorker) ensureNetSlot(exemplar network.Program, width int) *netSlot {
	h := exemplar.TopoKey()
	for _, s := range w.netSlots[h] {
		if s.width == width && s.exemplar.SameTopology(exemplar) {
			s.used = true
			return s
		}
	}
	bp := network.NewBatch(exemplar, width)
	s := &netSlot{exemplar: exemplar, width: width, bp: bp, st: bp.NewState(), used: true}
	w.netSlots[h] = append(w.netSlots[h], s)
	return s
}

// sweepNetSlots drops slots whose (topology, width) went extinct this
// generation, mirroring the phenotype cache's sweep.
func (w *evalWorker) sweepNetSlots() {
	for h, slots := range w.netSlots {
		kept := slots[:0]
		for _, s := range slots {
			if s.used {
				s.used = false
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			delete(w.netSlots, h)
		} else {
			w.netSlots[h] = kept
		}
	}
}

// safeRunBatchRange shields the dispatcher from a panicking fitness
// evaluation inside a batch, as safeEvaluateEpisode does for
// per-episode jobs.
func (r *Runner) safeRunBatchRange(w *evalWorker, grp *evalGroup, lo, hi int, perEp []float64, width, episodes int) (cr chunkResult) {
	defer func() {
		if p := recover(); p != nil {
			g := r.Pop.Genomes[grp.members[lo/episodes]]
			cr = chunkResult{err: fmt.Errorf("genome %d (batch): evaluation panic: %v", g.ID, p)}
		}
	}()
	return r.runBatchRange(w, grp, lo, hi, perEp, width, episodes)
}

// swapPlaneCols exchanges two lane columns of a struct-of-arrays plane.
func swapPlaneCols(plane []float64, width, rows, a, b int) {
	for rw := 0; rw < rows; rw++ {
		plane[rw*width+a], plane[rw*width+b] = plane[rw*width+b], plane[rw*width+a]
	}
}

// loadLane loads one (genome, episode) unit into a lane: parameters
// into the batch program, a deterministic reset into the environment
// lane (episodeSeed, so any lane assignment reproduces the serial
// stream exactly), a zero reward sum and step count.
func (r *Runner) loadLane(ls *laneSet, bp *network.BatchProgram, obsPlane []float64, grp *evalGroup, lane, unit, episodes int) error {
	mi, ep := unit/episodes, unit%episodes
	g := r.Pop.Genomes[grp.members[mi]]
	if err := bp.SetLane(lane, grp.progs[mi]); err != nil {
		return fmt.Errorf("genome %d: %w", g.ID, err)
	}
	ls.be.ResetLane(lane, r.episodeSeed(g, ep), obsPlane)
	ls.laneSum[lane] = 0
	ls.laneSteps[lane] = 0
	ls.laneUnit[lane] = unit
	ls.done[lane] = false
	return nil
}

// runBatchRange advances units [lo, hi) of one topology group through
// the batch engine: fill lanes, lock-step feed + env step, retire and
// backfill in place, compact with swap-retire when units run dry.
func (r *Runner) runBatchRange(w *evalWorker, grp *evalGroup, lo, hi int, perEp []float64, maxWidth, episodes int) (cr chunkResult) {
	width := batchWidthFor(hi-lo, maxWidth)
	ls, err := w.ensureLaneSet(r, width)
	if err != nil {
		return chunkResult{err: err}
	}
	slot := w.ensureNetSlot(grp.exemplar, width)
	bp, st := slot.bp, slot.st
	be := ls.be
	obsRows := be.ObservationSize()
	// The environment and the network share planes: resets and steps
	// write observations into the batch state's input rows, and steps
	// read actions from its output rows.
	obsPlane, actPlane := bp.ObsPlane(st), bp.ActPlane(st)

	active, next := 0, lo
	for active < width && next < hi {
		if err := r.loadLane(ls, bp, obsPlane, grp, active, next, episodes); err != nil {
			return chunkResult{err: err}
		}
		active++
		next++
	}
	edges := int64(bp.NumEdges())
	verts := int64(bp.NumVertices() - bp.NumInputs())

	for active > 0 {
		if err := bp.FeedBatchInto(st, active); err != nil {
			return chunkResult{err: err}
		}
		be.StepAll(obsPlane, ls.rew, ls.done, actPlane, active)
		// The done check rides along with the reward sums, so quiet
		// steps (no lane finished, the common case) skip the retire
		// sweep entirely.
		anyDone := false
		sums, rews := ls.laneSum[:active], ls.rew[:active]
		steps, dn := ls.laneSteps[:active], ls.done[:active]
		for lane := range sums {
			sums[lane] += rews[lane]
			steps[lane]++
			if dn[lane] {
				anyDone = true
			}
		}
		if !anyDone {
			continue
		}
		// Retire finished lanes. Descending, so a swap-retire pulls in
		// a lane this sweep has already visited.
		for lane := active - 1; lane >= 0; lane-- {
			if !ls.done[lane] {
				continue
			}
			unit := ls.laneUnit[lane]
			mi, ep := unit/episodes, unit%episodes
			steps := ls.laneSteps[lane]
			perEp[grp.members[mi]*episodes+ep] = r.Workload.Fitness(be.LaneEnv(lane), steps, ls.laneSum[lane])
			cr.steps += int64(steps)
			cr.macs += int64(steps) * edges
			cr.updates += int64(steps) * verts
			if next < hi {
				if err := r.loadLane(ls, bp, obsPlane, grp, lane, next, episodes); err != nil {
					return chunkResult{err: err}
				}
				next++
				continue
			}
			last := active - 1
			if lane != last {
				bp.SwapLanes(lane, last)
				be.SwapLanes(lane, last)
				swapPlaneCols(obsPlane, width, obsRows, lane, last)
				ls.laneSum[lane], ls.laneSum[last] = ls.laneSum[last], ls.laneSum[lane]
				ls.laneSteps[lane], ls.laneSteps[last] = ls.laneSteps[last], ls.laneSteps[lane]
				ls.laneUnit[lane], ls.laneUnit[last] = ls.laneUnit[last], ls.laneUnit[lane]
				ls.done[lane], ls.done[last] = ls.done[last], ls.done[lane]
			}
			active--
		}
	}
	return cr
}
