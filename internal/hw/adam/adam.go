// Package adam models the ACCELERATOR FOR DENSE ADDITION &
// MULTIPLICATION: the inference engine of the GeneSys SoC
// (Section IV-D). ADAM evaluates the irregular NEAT networks by posing
// groups of vertex updates as packed matrix–vector multiplications on a
// 32×32 systolic array of MAC units, with the System CPU's vectorize
// routine packing ready node values into well-formed input vectors.
//
// The model consumes the per-genome execution plans produced by
// network.BuildPlan (the vectorize output) and accounts cycles, MACs,
// SRAM traffic and energy for a full generation of inference.
//
// Two scheduling modes are modeled:
//
//   - Packed (the paper's design): at every environment step, the
//     vertex updates of all still-running genomes are packed together
//     (population-level parallelism), so the array is throughput-bound
//     on the summed MAC work plus a fill/drain overhead per topological
//     level;
//   - Serial: one genome at a time, its stage matrices tiled over the
//     array — the ablation the paper's GPU_a configuration resembles.
package adam

import (
	"repro/internal/gene"
	"repro/internal/hw/hwsim"
	"repro/internal/network"
)

// Config is one ADAM design point.
type Config struct {
	// Rows, Cols give the systolic array shape (32 × 32 in the paper).
	Rows, Cols int
	// Packed selects population-packed scheduling (the paper's mode).
	Packed bool
	// MACEnergyPJ is one multiply-accumulate.
	MACEnergyPJ float64
	// SRAMAccessPJ is one 64-bit genome-buffer access.
	SRAMAccessPJ float64
	// VectorizeCyclesPerElement is the CPU cost of packing one element
	// of an input vector; packing overlaps with array execution, so a
	// stage takes max(array, vectorize) cycles.
	VectorizeCyclesPerElement int
}

// DefaultConfig is the paper's 32×32 array with packed scheduling.
func DefaultConfig() Config {
	return Config{
		Rows: 32, Cols: 32,
		Packed:                    true,
		MACEnergyPJ:               0.35,
		SRAMAccessPJ:              50,
		VectorizeCyclesPerElement: 1,
	}
}

// MACs returns the array's MAC count.
func (c Config) MACs() int { return c.Rows * c.Cols }

// Job is one genome's inference workload for a generation: its packed
// plan and the number of environment steps (each step is one full
// inference pass).
type Job struct {
	Plan  network.Plan
	Steps int
}

// JobsFor builds ADAM's input for one generation: the System CPU's
// vectorize routine (network.BuildPlan) run once per genome, each job
// charged steps inference passes. It fails on a genome whose network
// cannot be built (a cycle or an invalid gene).
func JobsFor(genomes []*gene.Genome, steps int) ([]Job, error) {
	var b network.Builder
	jobs := make([]Job, 0, len(genomes))
	for _, g := range genomes {
		n, err := b.Build(g)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, Job{Plan: n.BuildPlan(), Steps: steps})
	}
	return jobs, nil
}

// Engine is the ADAM model. Its activity accumulates in a hwsim
// counter node named "adam".
//
// RunGeneration charges raw counts: weight_load_cycles (the
// once-per-generation weight-matrix setup), pass_cycles (one inference
// pass over every genome, the per-sweep number Fig. 11c plots),
// compute_cycles (all steps), dense_macs (packed zeros included: the
// array cannot skip them), useful_macs (true edges), and the SRAM
// traffic sram_reads and sram_writes. The snapshot hook derives
// total_cycles, mac_energy_pj, sram_energy_pj, energy_pj and, once the
// array has computed, utilization (useful MACs over array capacity
// over compute time).
type Engine struct {
	cfg Config
	ctr *hwsim.Counters
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.Rows < 1 {
		cfg.Rows = 1
	}
	if cfg.Cols < 1 {
		cfg.Cols = 1
	}
	e := &Engine{cfg: cfg, ctr: hwsim.New("adam")}
	macs := float64(e.cfg.MACs())
	e.ctr.OnSnapshot(func(c *hwsim.Counters) {
		cc := c.IntValue("compute_cycles")
		c.SetInt("total_cycles", c.IntValue("weight_load_cycles")+cc)
		macEnergy := float64(c.IntValue("dense_macs")) * cfg.MACEnergyPJ
		c.SetFloat("mac_energy_pj", macEnergy)
		sramEnergy := float64(c.IntValue("sram_reads")+c.IntValue("sram_writes")) * cfg.SRAMAccessPJ
		c.SetFloat("sram_energy_pj", sramEnergy)
		c.SetFloat("energy_pj", macEnergy+sramEnergy)
		if cc > 0 {
			util := float64(c.IntValue("useful_macs")) / (float64(cc) * macs)
			if util > 1 {
				util = 1
			}
			c.SetFloat("utilization", util)
		}
	})
	return e
}

// Counters returns the engine's live registry node.
func (e *Engine) Counters() *hwsim.Counters { return e.ctr }

// Reset zeroes the engine's counters.
func (e *Engine) Reset() { e.ctr.Reset() }

// stageCycles returns the serial-mode array cycles for one
// matrix–vector stage: the stage is tiled over the array; each tile
// streams its input sub-vector (Cols cycles) and drains partial sums
// (Rows cycles), output-stationary.
func (e *Engine) stageCycles(s network.Stage) int64 {
	rowTiles := int64((s.Rows + e.cfg.Rows - 1) / e.cfg.Rows)
	colTiles := int64((s.Cols + e.cfg.Cols - 1) / e.cfg.Cols)
	if rowTiles == 0 || colTiles == 0 {
		return 0
	}
	perTile := int64(e.cfg.Cols + e.cfg.Rows) // stream + drain
	array := rowTiles * colTiles * perTile
	vectorize := int64(s.Cols * e.cfg.VectorizeCyclesPerElement)
	if vectorize > array {
		return vectorize
	}
	return array
}

// jobProfile is the per-pass summary of one job.
type jobProfile struct {
	steps       int
	passCycles  int64 // serial-mode pass cycles
	passMACs    int64
	passUseful  int64
	passReads   int64
	passWrites  int64
	depth       int
	vecElements int64
}

func (e *Engine) profile(j Job) jobProfile {
	p := jobProfile{steps: j.Steps, depth: len(j.Plan.Stages)}
	if p.steps < 0 {
		p.steps = 0
	}
	for _, s := range j.Plan.Stages {
		p.passCycles += e.stageCycles(s)
		p.passMACs += int64(s.MACs())
		p.passUseful += int64(s.NonZero)
		p.passReads += int64(s.Cols)
		p.passWrites += int64(s.Rows)
		p.vecElements += int64(s.Cols)
	}
	return p
}

// RunGeneration accounts a full generation of inference, charging its
// raw counts into the engine's counter node.
func (e *Engine) RunGeneration(jobs []Job) {
	var weightLoadCycles, passCycles, computeCycles int64
	var denseMACs, usefulMACs, sramReads, sramWrites int64
	profiles := make([]jobProfile, 0, len(jobs))
	maxSteps := 0
	for _, j := range jobs {
		p := e.profile(j)
		profiles = append(profiles, p)
		if p.steps > maxSteps {
			maxSteps = p.steps
		}
		// Weight matrices built once per generation: read the genome's
		// connection genes once and push the tiles in.
		weightLoadCycles += int64(j.Plan.Edges) / int64(e.cfg.Cols) * 2
		sramReads += int64(j.Plan.Edges)

		steps := int64(p.steps)
		denseMACs += p.passMACs * steps
		usefulMACs += p.passUseful * steps
		sramReads += p.passReads * steps
		sramWrites += p.passWrites * steps
	}

	if e.cfg.Packed {
		passCycles = e.packedRound(profiles, 0)
		// Episodes end at different steps; each round packs only the
		// still-running genomes.
		for round := 0; round < maxSteps; round++ {
			computeCycles += e.packedRound(profiles, round)
		}
	} else {
		for _, p := range profiles {
			passCycles += p.passCycles
			computeCycles += p.passCycles * int64(p.steps)
		}
	}

	c := e.ctr
	c.AddInt("weight_load_cycles", weightLoadCycles)
	c.AddInt("pass_cycles", passCycles)
	c.AddInt("compute_cycles", computeCycles)
	c.AddInt("dense_macs", denseMACs)
	c.AddInt("useful_macs", usefulMACs)
	c.AddInt("sram_reads", sramReads)
	c.AddInt("sram_writes", sramWrites)
}

// packedRound returns the array cycles of one environment-step round
// with population packing: throughput-bound MAC streaming of every
// active genome's pass, plus a fill/drain overhead per topological
// level of the deepest active network, plus the CPU vectorize bound.
func (e *Engine) packedRound(profiles []jobProfile, round int) int64 {
	var macs, vec int64
	depth := 0
	for i := range profiles {
		p := &profiles[i]
		if p.steps <= round {
			continue
		}
		macs += p.passMACs
		vec += p.vecElements
		if p.depth > depth {
			depth = p.depth
		}
	}
	if macs == 0 {
		return 0
	}
	array := int64(e.cfg.MACs())
	cycles := (macs+array-1)/array + int64(depth*(e.cfg.Rows+e.cfg.Cols))
	vecCycles := vec * int64(e.cfg.VectorizeCyclesPerElement) / int64(e.cfg.Rows)
	if vecCycles > cycles {
		cycles = vecCycles
	}
	return cycles
}
