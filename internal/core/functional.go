package core

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/evolve"
	"repro/internal/gene"
	"repro/internal/hw/adam"
	"repro/internal/hw/eve"
	"repro/internal/neat"
)

// FunctionalSystem runs the GeneSys loop through the *functional*
// hardware models end to end: inference executes on the simulated
// systolic array (adam.Compiled) and reproduction streams through the
// functional PE pipeline (eve.HardwareReproducer), with genomes held at
// the quantized 64-bit gene-word precision throughout. Where System
// accounts what the chip would cost, FunctionalSystem computes what
// the chip would compute.
type FunctionalSystem struct {
	Workload evolve.Workload
	Pop      []*gene.Genome

	envName  string
	repro    *eve.HardwareReproducer
	executor *adam.Executor
	gen      int
	seed     uint64
	// History records per-generation best/mean fitness.
	History []FunctionalGenStats
}

// FunctionalGenStats is one functional generation's outcome.
type FunctionalGenStats struct {
	Generation  int
	MaxFitness  float64
	MeanFitness float64
	Solved      bool
	// ArrayCycles is the simulated systolic-array activity this
	// generation; PEGenes the genes streamed through the PEs during
	// the following reproduction.
	ArrayCycles int64
	PEGenes     int
}

// NewFunctional builds the functional system for a workload.
func NewFunctional(workload string, popSize int, seed uint64) (*FunctionalSystem, error) {
	w, err := evolve.WorkloadByName(workload)
	if err != nil {
		return nil, err
	}
	probe, err := env.New(w.EnvName)
	if err != nil {
		return nil, err
	}
	if popSize <= 0 {
		popSize = 150
	}
	arr, err := adam.NewArray(32, 32)
	if err != nil {
		return nil, err
	}
	s := &FunctionalSystem{
		Workload: w,
		envName:  w.EnvName,
		repro:    eve.NewHardwareReproducer(seed),
		executor: adam.NewExecutor(arr),
		seed:     seed,
	}
	// Tuned for the quantized, drop-on-split hardware semantics.
	s.repro.PE.PerturbProb = 0.25
	s.repro.PE.PerturbScale = 1.0
	s.repro.PE.AddNodeProb = 0.002
	s.repro.PE.AddConnProb = 0.01

	// Seed population: NEAT's minimal fully connected topology with
	// zero weights, exact at hardware precision.
	ncfg := neat.DefaultConfig(probe.ObservationSize(), probe.ActionSize())
	ncfg.PopulationSize = popSize
	pop, err := neat.NewPopulation(ncfg, seed)
	if err != nil {
		return nil, err
	}
	s.Pop = pop.Genomes
	return s, nil
}

// RunGeneration evaluates every genome on the simulated array and
// reproduces the next generation through the functional PEs.
func (s *FunctionalSystem) RunGeneration() (FunctionalGenStats, error) {
	e, err := env.New(s.envName)
	if err != nil {
		return FunctionalGenStats{}, err
	}
	cyclesBefore := s.executor.ArrayCycles

	st := FunctionalGenStats{Generation: s.gen}
	var sum float64
	for i, g := range s.Pop {
		fit, err := s.evaluate(e, g)
		if err != nil {
			return st, err
		}
		g.Fitness = fit
		sum += fit
		if i == 0 || fit > st.MaxFitness {
			st.MaxFitness = fit
		}
	}
	st.MeanFitness = sum / float64(len(s.Pop))
	st.Solved = st.MaxFitness >= s.Workload.Target
	st.ArrayCycles = s.executor.ArrayCycles - cyclesBefore

	if !st.Solved {
		genesBefore := s.repro.Stats.CyclesStreamed
		s.Pop = s.repro.NextGeneration(s.Pop, len(s.Pop))
		st.PEGenes = s.repro.Stats.CyclesStreamed - genesBefore
		s.gen++
	}
	s.History = append(s.History, st)
	return st, nil
}

// evaluate runs the workload's episodes for one genome on the array.
func (s *FunctionalSystem) evaluate(e env.Env, g *gene.Genome) (float64, error) {
	compiled, err := s.executor.Compile(g)
	if err != nil {
		// The hardware pipeline has no cycle checker; a cyclic child
		// simply cannot be scheduled and scores zero.
		return 0, nil
	}
	episodes := s.Workload.Episodes
	if episodes < 1 {
		episodes = 1
	}
	var total float64
	for ep := 0; ep < episodes; ep++ {
		seed := s.seed ^ uint64(s.gen)<<40 ^ uint64(g.ID)<<8 ^ uint64(ep)
		obs := e.Reset(seed)
		steps := 0
		var sum float64
		for {
			act, err := compiled.Feed(obs)
			if err != nil {
				return 0, fmt.Errorf("functional inference: %w", err)
			}
			var r float64
			var done bool
			obs, r, done = e.Step(act)
			sum += r
			steps++
			if done {
				break
			}
		}
		total += s.Workload.Fitness(e, steps, sum)
	}
	return total / float64(episodes), nil
}

// Run executes generations until solved or the budget ends.
func (s *FunctionalSystem) Run(maxGenerations int) (bool, error) {
	for g := 0; g < maxGenerations; g++ {
		st, err := s.RunGeneration()
		if err != nil {
			return false, err
		}
		if st.Solved {
			return true, nil
		}
	}
	return false, nil
}
