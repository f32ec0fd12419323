package evolve

import (
	"repro/internal/gene"
	"repro/internal/rng"
)

// Lamarckian weight refinement — the paper's Future Directions hybrid:
// "GENESYS can be run in conjunction with supervised learning, with the
// former enabling rapid topology exploration and then using
// conventional training to tune the weights." In the reward-only
// setting the conventional tuner is a local search: perturb one
// connection weight at a time, keep improvements, and write the tuned
// weights back into the genome (Lamarckian inheritance), so the next
// reproduction round evolves from the refined individual.

// RefineResult reports one refinement session.
type RefineResult struct {
	GenomeID     int64
	Trials       int
	Accepted     int
	FitnessStart float64
	FitnessEnd   float64
}

// RefineBest applies `trials` hill-climbing weight perturbations to the
// population's current best genome, writing improvements back. The
// genome's Fitness field is updated to the refined value.
func (r *Runner) RefineBest(trials int, seed uint64) (RefineResult, error) {
	if r.Pop == nil {
		return RefineResult{}, nil
	}
	best := r.Pop.Best()
	if best == nil {
		return RefineResult{}, nil
	}
	return r.refine(best, trials, seed)
}

// refine hill-climbs one genome's connection weights. It runs on the
// pool's first worker slot (creating it if evaluation has not run yet),
// compiling each trial with the runner's builder — the phenotype
// changes every trial, so the reuse cache is deliberately bypassed —
// and bumps the genome's
// version stamp whenever a refined weight is kept, so the cache never
// serves the pre-refinement phenotype for this genome.
func (r *Runner) refine(g *gene.Genome, trials int, seed uint64) (RefineResult, error) {
	if err := r.ensureWorkers(1); err != nil {
		return RefineResult{}, err
	}
	w := r.workers[0]
	prng := rng.New(seed ^ uint64(g.ID)<<20)

	res := RefineResult{GenomeID: g.ID, Trials: trials}
	cur := r.refineEval(w, g)
	if cur.err != nil {
		return res, cur.err
	}
	res.FitnessStart = cur.fitness
	bestFit := cur.fitness

	for trial := 0; trial < trials && len(g.Conns) > 0; trial++ {
		i := prng.Intn(len(g.Conns))
		old := g.Conns[i].Weight
		delta := prng.NormFloat64() * 0.3
		g.Conns[i].Weight = gene.ClampAttr(old + delta)

		ev := r.refineEval(w, g)
		if ev.err != nil {
			return res, ev.err
		}
		if ev.fitness > bestFit {
			bestFit = ev.fitness
			res.Accepted++
			g.BumpVersion() // the Lamarckian write-back changed the phenotype
		} else {
			g.Conns[i].Weight = old // revert
		}
	}
	g.Fitness = bestFit
	res.FitnessEnd = bestFit
	return res, nil
}

// refineEval compiles g with the runner's builder (no cache) and scores
// it on w.
func (r *Runner) refineEval(w *evalWorker, g *gene.Genome) evalResult {
	net, err := r.builder.Build(g)
	if err != nil {
		return evalResult{err: err}
	}
	return r.runEpisodes(net, w.env, g)
}
