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

// Report is the generation-level inference account.
type Report struct {
	// WeightLoadCycles is the once-per-generation weight-matrix setup
	// ("the weight matrices do not change within a given generation").
	WeightLoadCycles int64
	// PassCycles is the array time for a single inference pass over
	// every genome (the per-generation-sweep number Fig. 11c plots).
	PassCycles int64
	// ComputeCycles is the full evaluation phase (all steps).
	ComputeCycles int64
	// TotalCycles includes weight loading.
	TotalCycles int64
	// DenseMACs is the MAC work actually executed (packed zeros
	// included — the array cannot skip them).
	DenseMACs int64
	// UsefulMACs is the non-zero (true edge) MAC count.
	UsefulMACs int64
	// SRAM traffic: input-vector reads, output writes, weight reads.
	SRAMReads  int64
	SRAMWrites int64
	// Energy decomposition in pJ.
	MACEnergyPJ  float64
	SRAMEnergyPJ float64
	// Utilization is useful MACs over array capacity over compute time.
	Utilization float64
}

// TotalEnergyPJ sums the energy components.
func (r Report) TotalEnergyPJ() float64 { return r.MACEnergyPJ + r.SRAMEnergyPJ }

// Engine is the ADAM model. Its activity accumulates in a hwsim
// counter node named "adam"; the per-generation Report is a view over
// the same quantities.
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
		c.SetFloat("energy_pj", c.FloatValue("mac_energy_pj")+c.FloatValue("sram_energy_pj"))
		if cc := c.IntValue("compute_cycles"); cc > 0 {
			util := float64(c.IntValue("useful_macs")) / (float64(cc) * macs)
			if util > 1 {
				util = 1
			}
			c.SetFloat("utilization", util)
		}
	})
	return e
}

// Config returns the design point.
func (e *Engine) Config() Config { return e.cfg }

// Name is the engine's hwsim component name.
func (e *Engine) Name() string { return "adam" }

// Counters returns the engine's live registry node.
func (e *Engine) Counters() *hwsim.Counters { return e.ctr }

// Reset zeroes the engine's counters.
func (e *Engine) Reset() { e.ctr.Reset() }

// publish charges one generation's Report into the registry.
func (e *Engine) publish(r Report) {
	c := e.ctr
	c.AddInt("weight_load_cycles", r.WeightLoadCycles)
	c.AddInt("pass_cycles", r.PassCycles)
	c.AddInt("compute_cycles", r.ComputeCycles)
	c.AddInt("total_cycles", r.TotalCycles)
	c.AddInt("dense_macs", r.DenseMACs)
	c.AddInt("useful_macs", r.UsefulMACs)
	c.AddInt("sram_reads", r.SRAMReads)
	c.AddInt("sram_writes", r.SRAMWrites)
	c.AddFloat("mac_energy_pj", r.MACEnergyPJ)
	c.AddFloat("sram_energy_pj", r.SRAMEnergyPJ)
}

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

// RunGeneration accounts a full generation of inference.
func (e *Engine) RunGeneration(jobs []Job) Report {
	var r Report
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
		r.WeightLoadCycles += int64(j.Plan.Edges) / int64(e.cfg.Cols) * 2
		r.SRAMReads += int64(j.Plan.Edges)

		steps := int64(p.steps)
		r.DenseMACs += p.passMACs * steps
		r.UsefulMACs += p.passUseful * steps
		r.SRAMReads += p.passReads * steps
		r.SRAMWrites += p.passWrites * steps
	}

	if e.cfg.Packed {
		r.PassCycles = e.packedRound(profiles, 0)
		// Episodes end at different steps; each round packs only the
		// still-running genomes.
		for round := 0; round < maxSteps; round++ {
			r.ComputeCycles += e.packedRound(profiles, round)
		}
	} else {
		for _, p := range profiles {
			r.PassCycles += p.passCycles
			r.ComputeCycles += p.passCycles * int64(p.steps)
		}
	}

	r.TotalCycles = r.WeightLoadCycles + r.ComputeCycles
	r.MACEnergyPJ = float64(r.DenseMACs) * e.cfg.MACEnergyPJ
	r.SRAMEnergyPJ = float64(r.SRAMReads+r.SRAMWrites) * e.cfg.SRAMAccessPJ
	if r.ComputeCycles > 0 {
		r.Utilization = float64(r.UsefulMACs) /
			(float64(r.ComputeCycles) * float64(e.cfg.MACs()))
		if r.Utilization > 1 {
			r.Utilization = 1
		}
	}
	e.publish(r)
	return r
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
