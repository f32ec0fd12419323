// Package core is the public facade of the GeneSys reproduction: one
// type, System, that wires the NEAT population, an environment
// workload, and (optionally) the cycle-level GeneSys SoC model into the
// closed learning loop of Fig. 1(b) — ADAM inferring against the
// environment, EvE evolving the population, generation after
// generation.
//
// Typical use:
//
//	sys, err := core.New(core.Config{Workload: "cartpole", Seed: 1})
//	...
//	summary, err := sys.Run(100)
//
// With HardwareInLoop, each GenerationResult carries the chip's counter
// tree for that generation alone: read it by path, e.g.
// res.HW.Float("energy_pj") or res.HW.Int("eve/pe/gene_ops").
//
// cmd/genesys and the quickstart, lunarlander, atari and functional
// examples are built on this API. The experiment generators
// (internal/experiments) drive the underlying packages directly; both
// build ADAM's input with adam.JobsFor.
package core

import (
	"context"
	"fmt"

	"repro/internal/evolve"
	"repro/internal/hw/adam"
	"repro/internal/hw/energy"
	"repro/internal/hw/hwsim"
	"repro/internal/hw/soc"
	"repro/internal/neat"
	"repro/internal/trace"
)

// Config configures a System. Zero values select paper defaults.
type Config struct {
	// Workload names the task (see evolve.WorkloadNames).
	Workload string
	// Seed is the run's base seed.
	Seed uint64
	// Population overrides NEAT's population size (default 150, the
	// paper's setting).
	Population int
	// HardwareInLoop attaches the GeneSys SoC model (at
	// energy.DefaultSoC): every generation is additionally accounted
	// on the simulated chip.
	HardwareInLoop bool
}

// GenerationResult is one generation's outcome: the algorithm-level
// statistics and, with HardwareInLoop, the chip-level account.
type GenerationResult struct {
	Stats evolve.GenStats
	// HW is the chip's counter tree for this generation alone, valid
	// only when the System runs with hardware in the loop.
	HW    hwsim.Report
	HasHW bool
}

// Summary describes a completed run.
type Summary struct {
	Workload    string
	Solved      bool
	Generations int
	BestFitness float64
	// Hardware totals (zero without HardwareInLoop).
	TotalCycles   int64
	TotalSeconds  float64
	TotalEnergyPJ float64
}

// System is a configured GeneSys learning loop.
type System struct {
	cfg    Config
	runner *evolve.Runner
	trace  *trace.Trace
	chip   *soc.SoC

	// History holds one result per completed generation.
	History []GenerationResult
}

// New builds a System.
func New(cfg Config) (*System, error) {
	if cfg.Workload == "" {
		return nil, fmt.Errorf("core: no workload given (have %v)", evolve.WorkloadNames())
	}
	ncfg := neat.DefaultConfig(1, 1)
	if cfg.Population > 0 {
		ncfg.PopulationSize = cfg.Population
	}
	r, err := evolve.NewRunner(cfg.Workload, ncfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, runner: r}
	if cfg.HardwareInLoop {
		s.chip = soc.New(energy.DefaultSoC())
		s.trace = &trace.Trace{}
		r.SetRecorder(s.trace)
	}
	return s, nil
}

// Runner exposes the underlying evolution runner for advanced use
// (custom recorders, direct population access).
func (s *System) Runner() *evolve.Runner { return s.runner }

// Workload returns the configured workload definition.
func (s *System) Workload() evolve.Workload { return s.runner.Workload }

// RunGeneration executes one full generation: population evaluation,
// optional chip accounting, and reproduction.
func (s *System) RunGeneration() (GenerationResult, error) {
	var jobs []adam.Job
	var footprint int
	if s.chip != nil {
		// Snapshot the population before reproduction replaces it —
		// these are the genomes ADAM runs this generation.
		footprint = s.runner.Pop.FootprintBytes()
		var err error
		if jobs, err = adam.JobsFor(s.runner.Pop.Genomes, 0); err != nil {
			return GenerationResult{}, err
		}
	}

	st, err := s.runner.Step(context.Background())
	if err != nil {
		return GenerationResult{}, err
	}
	res := GenerationResult{Stats: st}
	if s.chip != nil {
		// Charge each genome its measured mean episode length.
		steps := 1
		if n := len(jobs); n > 0 && st.EnvSteps > 0 {
			steps = int(st.EnvSteps) / n
			if steps < 1 {
				steps = 1
			}
		}
		for i := range jobs {
			jobs[i].Steps = steps
		}
		// A solved generation does not reproduce, so it appended no
		// trace generation and EvE has nothing to replay.
		var g *trace.Generation
		if !st.Solved {
			g = s.trace.Last()
		}
		s.chip.Reset()
		s.chip.RunGeneration(jobs, g, footprint)
		res.HW = s.chip.Snapshot()
		res.HasHW = true
	}
	s.History = append(s.History, res)
	return res, nil
}

// Run executes up to maxGenerations, stopping when the workload's
// target fitness is reached.
func (s *System) Run(maxGenerations int) (Summary, error) {
	for g := 0; g < maxGenerations; g++ {
		res, err := s.RunGeneration()
		if err != nil {
			return s.Summary(), err
		}
		if res.Stats.Solved {
			break
		}
	}
	return s.Summary(), nil
}

// Summary aggregates the run so far.
func (s *System) Summary() Summary {
	sum := Summary{
		Workload:    s.cfg.Workload,
		Generations: len(s.History),
	}
	for i, res := range s.History {
		if i == 0 || res.Stats.MaxFitness > sum.BestFitness {
			sum.BestFitness = res.Stats.MaxFitness
		}
		sum.Solved = sum.Solved || res.Stats.Solved
		if res.HasHW {
			sum.TotalCycles += res.HW.Int("total_cycles")
			sum.TotalSeconds += res.HW.Float("total_seconds")
			sum.TotalEnergyPJ += res.HW.Float("energy_pj")
		}
	}
	return sum
}
