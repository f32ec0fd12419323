package evolve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/hw/hwsim"
	"repro/internal/neat"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Study runs N independent evolution runs of one workload in parallel —
// the paper's characterization methodology ("across 100 separate runs
// of each application") — and aggregates convergence statistics.

// StudyResult is one run's outcome.
type StudyResult struct {
	Run     int
	Solved  bool
	History []GenStats
	Err     error
}

// Study aggregates a batch of runs.
type Study struct {
	Workload string
	Results  []StudyResult
}

// RunSeed derives the seed of one study run from the study's base
// seed: a splitmix64 finalizer over base + (run+1)·golden-ratio. The
// old scheme (base + run·7919) made runs of nearby user-chosen seeds
// share streams — base 7919 run 0 replayed base 0 run 1 exactly. The
// mix decorrelates every (base, run) pair while staying a pure
// function of both, so studies remain reproducible.
func RunSeed(base uint64, run int) uint64 {
	return rng.Mix64(base + 0x9E3779B97F4A7C15*uint64(run+1))
}

// StudyOptions tunes RunStudyContext beyond the required parameters.
type StudyOptions struct {
	// Sink receives per-generation records, tagged with the workload
	// name and run index; it must be safe for concurrent use
	// (hwsim.Log is). Nil discards.
	Sink hwsim.Sink
	// Parallelism caps the number of runs in flight; 0 means
	// runtime.NumCPU(). Callers embedding studies in a wider parallel
	// pipeline pass their own cap so total concurrency stays bounded.
	Parallelism int
}

// RunStudyContext executes runs independent evolutions, each up to
// maxGenerations, with per-run seeds derived by RunSeed, cancellation
// via ctx, and the per-generation records opt asks for. At most
// opt.Parallelism runs are in flight, and every run's error is
// aggregated with errors.Join. A run that panics (e.g.
// inside a fitness evaluation path the worker pool does not cover) is
// recovered into that run's StudyResult.Err without taking down the
// study.
func RunStudyContext(ctx context.Context, workload string, cfg neat.Config, runs, maxGenerations int, seed uint64, opt StudyOptions) (*Study, error) {
	st := &Study{Workload: workload, Results: make([]StudyResult, runs)}
	slots := opt.Parallelism
	if slots <= 0 {
		slots = runtime.NumCPU()
	}
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	for run := 0; run < runs; run++ {
		wg.Add(1)
		go func(run int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := StudyResult{Run: run}
			defer func() {
				if p := recover(); p != nil {
					res.Err = fmt.Errorf("run panic: %v", p)
				}
				st.Results[run] = res
			}()
			if err := ctx.Err(); err != nil {
				res.Err = err
				return
			}
			r, err := NewRunner(workload, cfg, RunSeed(seed, run))
			if err != nil {
				res.Err = err
				return
			}
			r.Parallelism = 2 // the study itself provides the outer parallelism
			if opt.Sink != nil {
				r.Sink = hwsim.Tagged{Sink: opt.Sink, Workload: workload, Run: run}
			}
			res.Solved, res.Err = r.Run(ctx, maxGenerations)
			res.History = r.History
		}(run)
	}
	wg.Wait()
	var errs []error
	for _, res := range st.Results {
		if res.Err != nil {
			errs = append(errs, fmt.Errorf("run %d: %w", res.Run, res.Err))
		}
	}
	return st, errors.Join(errs...)
}

// SolveRate is the fraction of runs that reached the target.
func (s *Study) SolveRate() float64 {
	if len(s.Results) == 0 {
		return 0
	}
	n := 0
	for _, r := range s.Results {
		if r.Solved {
			n++
		}
	}
	return float64(n) / float64(len(s.Results))
}

// GenerationsToSolve summarizes the convergence-generation distribution
// over solved runs — the run-to-run variance observation of Fig. 4(a)
// ("the target fitness could be realized as early as generation 8 to
// as late as generation 160").
func (s *Study) GenerationsToSolve() stats.Summary {
	var gens []float64
	for _, r := range s.Results {
		if r.Solved {
			gens = append(gens, float64(len(r.History)))
		}
	}
	return stats.Summarize(gens)
}

// OpsPerGeneration pools the reproduction-op counts of every
// generation of every run (the Fig. 5a sample).
func (s *Study) OpsPerGeneration() []float64 {
	var out []float64
	for _, r := range s.Results {
		for _, g := range r.History {
			if g.Solved {
				continue
			}
			out = append(out, float64(g.CrossoverOps+g.MutationOps))
		}
	}
	return out
}

// FootprintsPerGeneration pools the footprint samples (Fig. 5b).
func (s *Study) FootprintsPerGeneration() []float64 {
	var out []float64
	for _, r := range s.Results {
		for _, g := range r.History {
			out = append(out, float64(g.FootprintBytes))
		}
	}
	return out
}

// MeanNormMaxByGeneration averages the normalized best fitness across
// runs per generation index (shorter runs stop contributing when they
// end) — the mean curve of Fig. 4a.
func (s *Study) MeanNormMaxByGeneration() []float64 {
	var out []float64
	for g := 0; ; g++ {
		var sum float64
		n := 0
		for _, r := range s.Results {
			if g < len(r.History) {
				sum += r.History[g].NormMax
				n++
			}
		}
		if n == 0 {
			return out
		}
		out = append(out, sum/float64(n))
	}
}
