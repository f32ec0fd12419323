// Package eve models the EVOLUTION ENGINE: the accelerator that carries
// out selection and reproduction for every genome of the population
// (Section IV-C). It replays reproduction traces (package trace) through
// a configurable pool of processing elements, the gene split/merge
// blocks, and an interconnect model, producing the cycle, SRAM-traffic
// and energy accounts behind Fig. 9c/9d and Fig. 11.
//
// Model summary, at the abstraction the paper quotes its numbers:
//
//   - each PE is the 4-stage pipeline of Fig. 7 (crossover,
//     perturbation, delete gene, add gene) consuming one aligned parent
//     gene pair per cycle after a 2-cycle per-child setup
//     (Section IV-C5);
//   - one PE produces one whole child genome (footnote 2);
//   - the gene selector runs as a software thread on the system CPU —
//     the only serial step;
//   - PE allocation is greedy: children sharing parents are scheduled
//     in the same wave so a multicast NoC can serve them with single
//     SRAM reads (genome-level reuse).
package eve

import (
	"fmt"
	"sort"

	"repro/internal/hw/fault"
	"repro/internal/hw/hwsim"
	"repro/internal/hw/noc"
	"repro/internal/hw/sram"
	"repro/internal/neat"
	"repro/internal/trace"
)

// Allocation selects the PE allocation policy.
type Allocation int

// Allocation policies.
const (
	// AllocGreedy co-schedules children sharing parents in the same
	// wave ("PE allocation is done with a greedy policy, such that
	// maximum number of children can be created from the parents
	// currently in the SRAM") — the paper's design.
	AllocGreedy Allocation = iota
	// AllocFIFO assigns children in arrival order; the ablation
	// baseline that forgoes genome-level reuse.
	AllocFIFO
)

// String names the policy.
func (a Allocation) String() string {
	if a == AllocFIFO {
		return "fifo"
	}
	return "greedy"
}

// Config is one EvE design point.
type Config struct {
	// NumPEs is the PE pool size.
	NumPEs int
	// Allocation is the PE scheduling policy (default greedy).
	Allocation Allocation
	// NoC is the distribution/collection interconnect.
	NoC noc.Config
	// PipelineDepth is the PE pipeline length (4 stages in Fig. 7).
	PipelineDepth int
	// SetupCycles is the per-child control/fitness load time
	// ("it takes 2 cycles to load the parents' fitness values").
	SetupCycles int
	// SelectorCyclesPerGenome approximates the CPU software selector
	// cost per population member (fitness sharing + threshold + pick).
	SelectorCyclesPerGenome int
	// OpEnergyPJ is the per-gene-operation PE energy.
	OpEnergyPJ float64
}

// DefaultConfig returns the paper's design point wired to the given PE
// count and NoC kind.
func DefaultConfig(numPEs int, kind noc.Kind) Config {
	return Config{
		NumPEs: numPEs,
		NoC: noc.Config{
			Kind:              kind,
			NumPEs:            numPEs,
			SRAMReadsPerCycle: 48, // one read per bank per cycle
			HopEnergyPJ:       0.15,
		},
		PipelineDepth:           4,
		SetupCycles:             2,
		SelectorCyclesPerGenome: 16,
		OpEnergyPJ:              1.2,
	}
}

// Engine replays traces against a design point and a genome buffer.
// Its activity accumulates in a hwsim counter node named "eve" with
// child scopes "pe" (pipeline work) and "noc" (interconnect tally).
//
// RunGeneration charges raw counts: selector_cycles, stream_cycles,
// waves, children, sram_reads, sram_writes and noc_energy_pj, plus
// pe/gene_ops and pe/busy_cycles. The snapshot hook derives the rest:
// total_cycles, pe/energy_pj, sram_energy_pj, energy_pj, and, once
// streaming has run, reads_per_cycle (the Fig. 11b metric) and
// utilization (busy PE-cycles over total PE-cycles while streaming).
type Engine struct {
	cfg Config
	buf *sram.Buffer
	net *noc.Network
	ctr *hwsim.Counters

	// faults, when attached, marks stuck-at PEs: dead[i] is a lifetime
	// hard fault and liveIdx lists the usable pool the scheduler remaps
	// onto (waves shrink to the live capacity, so a dead PE's children
	// spill into extra waves and pile load onto the survivors).
	faults  *fault.Plan
	dead    []bool
	liveIdx []int
}

// New builds an engine. The buffer may be shared with an ADAM model;
// pass nil to let the engine allocate a private default buffer.
func New(cfg Config, buf *sram.Buffer) *Engine {
	if buf == nil {
		buf = sram.New(sram.DefaultConfig())
	}
	if cfg.NumPEs < 1 {
		cfg.NumPEs = 1
	}
	e := &Engine{cfg: cfg, buf: buf, net: noc.NewNetwork(cfg.NoC), ctr: hwsim.New("eve")}
	e.ctr.Adopt(e.net.Counters())
	numPEs := int64(cfg.NumPEs)
	accessPJ := buf.Config().AccessPJ
	e.ctr.OnSnapshot(func(c *hwsim.Counters) {
		pe := c.Child("pe")
		sc := c.IntValue("stream_cycles")
		c.SetInt("total_cycles", c.IntValue("selector_cycles")+sc)
		peEnergy := float64(pe.IntValue("gene_ops")) * cfg.OpEnergyPJ
		pe.SetFloat("energy_pj", peEnergy)
		sramEnergy := float64(c.IntValue("sram_reads")+c.IntValue("sram_writes")) * accessPJ
		c.SetFloat("sram_energy_pj", sramEnergy)
		c.SetFloat("energy_pj", peEnergy+c.FloatValue("noc_energy_pj")+sramEnergy)
		if sc > 0 {
			c.SetFloat("reads_per_cycle", float64(c.IntValue("sram_reads"))/float64(sc))
			util := float64(pe.IntValue("busy_cycles")) / float64(sc*numPEs)
			if util > 1 {
				util = 1
			}
			c.SetFloat("utilization", util)
		}
	})
	return e
}

// AttachFaults wires a fault plan into the engine and its interconnect.
// The plan's stuck-at map decides which PEs are dead for the chip's
// lifetime: their children are re-dispatched to live PEs (waves shrink
// to live capacity), which shows up as extra waves and per-PE load
// imbalance under the plan's "fault/eve" scope. Passing nil detaches.
func (e *Engine) AttachFaults(p *fault.Plan) {
	e.faults = p
	e.net.AttachFaults(p)
	e.dead = nil
	e.liveIdx = nil
	if p == nil {
		return
	}
	e.dead = p.DeadPEs(e.cfg.NumPEs)
	for i, d := range e.dead {
		if !d {
			e.liveIdx = append(e.liveIdx, i)
		}
	}
	if len(e.liveIdx) == 0 {
		// A fully-dead pool would deadlock the schedule; keep PE 0
		// limping so the model stays total (the imbalance counters make
		// the catastrophe visible).
		e.liveIdx = []int{0}
	}
	deadCount := int64(e.cfg.NumPEs - len(e.liveIdx))
	fc := p.EvECounters()
	fc.OnSnapshot(func(c *hwsim.Counters) {
		c.SetInt("dead_pes", deadCount)
		var max, sum int64
		for i := 0; i < e.cfg.NumPEs; i++ {
			b := c.IntValue(peBusyName(i))
			if b > max {
				max = b
			}
			sum += b
		}
		if sum > 0 {
			mean := float64(sum) / float64(len(e.liveIdx))
			c.SetFloat("busy_max", float64(max))
			c.SetFloat("busy_mean", mean)
			c.SetFloat("imbalance", float64(max)/mean)
		}
	})
}

// peBusyName is the per-PE busy-cycle counter under "fault/eve".
func peBusyName(i int) string { return fmt.Sprintf("pe%02d_busy_cycles", i) }

// Counters returns the engine's live registry node.
func (e *Engine) Counters() *hwsim.Counters { return e.ctr }

// Reset zeroes the engine's counter tree, including the NoC tally.
// The shared genome buffer is not touched (its owner resets it).
func (e *Engine) Reset() { e.ctr.Reset() }

// pairKey groups children by their parent pair for GLR-aware
// scheduling.
type pairKey struct{ p1, p2 int64 }

// wave is one scheduling round: at most NumPEs children.
type wave struct {
	children []*trace.ChildRecord
}

// RunGeneration replays one reproduction round, charging its raw
// counts into the engine's counter node.
func (e *Engine) RunGeneration(g *trace.Generation) {
	cfg := e.cfg
	selectorCycles := int64(cfg.SelectorCyclesPerGenome) * int64(len(g.ParentSizes))
	if selectorCycles == 0 {
		selectorCycles = int64(cfg.SelectorCyclesPerGenome) * int64(len(g.Children))
	}

	waves := e.allocate(g)
	e.chargeRemap(g, len(waves))

	var streamCycles, sramReads, sramWrites, busyPECycles int64
	var nocEnergyPJ float64
	for _, w := range waves {
		// Build the distribution streams: one per distinct parent.
		streamSet := map[int64]*noc.Stream{}
		longestChild := 0
		var childGenes int64
		for ci, c := range w.children {
			for _, pid := range []int64{c.Parent1, c.Parent2} {
				if pid < 0 {
					continue
				}
				s, ok := streamSet[pid]
				if !ok {
					s = &noc.Stream{Genes: e.parentSize(g, c, pid)}
					streamSet[pid] = s
				}
				s.Consumers++
			}
			size := childStreamLen(g, c)
			if size > longestChild {
				longestChild = size
			}
			childGenes += childSize(c, g)
			busy := int64(cfg.SetupCycles + size + cfg.PipelineDepth)
			busyPECycles += busy
			if e.faults != nil {
				// Children fill the live PEs in ascending index order.
				pe := e.liveIdx[ci%len(e.liveIdx)]
				e.faults.EvECounters().AddInt(peBusyName(pe), busy)
			}
		}
		streams := make([]noc.Stream, 0, len(streamSet))
		for _, s := range streamSet {
			streams = append(streams, *s)
		}

		d := e.net.Distribute(streams)
		coll := e.net.Collect(childGenes)
		sramReads += d.SRAMReads
		sramWrites += childGenes
		nocEnergyPJ += d.EnergyPJ + coll.EnergyPJ

		waveCycles := int64(cfg.SetupCycles + longestChild + cfg.PipelineDepth)
		if d.Cycles > waveCycles {
			waveCycles = d.Cycles
		}
		streamCycles += waveCycles
	}

	// Charge the SRAM traffic against the shared buffer.
	e.buf.Read(sramReads)
	e.buf.Write(sramWrites)

	var geneOps int64
	for i := range g.Children {
		geneOps += g.Children[i].TotalOps()
	}

	c := e.ctr
	c.AddInt("selector_cycles", selectorCycles)
	c.AddInt("stream_cycles", streamCycles)
	c.AddInt("waves", int64(len(waves)))
	c.AddInt("children", int64(len(g.Children)))
	c.AddInt("sram_reads", sramReads)
	c.AddInt("sram_writes", sramWrites)
	c.AddFloat("noc_energy_pj", nocEnergyPJ)
	pe := c.Child("pe")
	pe.AddInt("gene_ops", geneOps)
	pe.AddInt("busy_cycles", busyPECycles)
}

// allocate builds the wave schedule under the configured policy.
//
// Greedy buckets children by parent pair, largest groups first, and
// fills waves group-by-group so same-parent children are co-scheduled
// (maximizing multicast fan-out per SRAM read). FIFO packs children in
// arrival order.
func (e *Engine) allocate(g *trace.Generation) []wave {
	cfg := e.cfg
	ordered := make([]*trace.ChildRecord, 0, len(g.Children))
	if cfg.Allocation == AllocFIFO {
		for i := range g.Children {
			ordered = append(ordered, &g.Children[i])
		}
	} else {
		groups := map[pairKey][]*trace.ChildRecord{}
		var order []pairKey
		for i := range g.Children {
			c := &g.Children[i]
			k := pairKey{c.Parent1, c.Parent2}
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], c)
		}
		sort.Slice(order, func(i, j int) bool {
			if len(groups[order[i]]) != len(groups[order[j]]) {
				return len(groups[order[i]]) > len(groups[order[j]])
			}
			// Deterministic tiebreak.
			if order[i].p1 != order[j].p1 {
				return order[i].p1 < order[j].p1
			}
			return order[i].p2 < order[j].p2
		})
		for _, k := range order {
			ordered = append(ordered, groups[k]...)
		}
	}

	var waves []wave
	capacity := e.waveCapacity()
	cur := wave{}
	for _, c := range ordered {
		if len(cur.children) == capacity {
			waves = append(waves, cur)
			cur = wave{}
		}
		cur.children = append(cur.children, c)
	}
	if len(cur.children) > 0 {
		waves = append(waves, cur)
	}
	return waves
}

// waveCapacity is the number of children one wave can host: the full
// pool on a healthy chip, only the live PEs under stuck-at faults.
func (e *Engine) waveCapacity() int {
	if e.faults != nil && len(e.liveIdx) < e.cfg.NumPEs {
		return len(e.liveIdx)
	}
	return e.cfg.NumPEs
}

// chargeRemap itemizes the scheduling cost of dead PEs for one
// generation: how many children would have landed on a dead PE under
// fault-free packing (and so were re-dispatched), and how many extra
// waves the shrunken pool needed.
func (e *Engine) chargeRemap(g *trace.Generation, actualWaves int) {
	if e.faults == nil || len(g.Children) == 0 || len(e.liveIdx) == e.cfg.NumPEs {
		return
	}
	fc := e.faults.EvECounters()
	ideal := (len(g.Children) + e.cfg.NumPEs - 1) / e.cfg.NumPEs
	if extra := actualWaves - ideal; extra > 0 {
		fc.AddInt("extra_waves", int64(extra))
	}
	var redispatched int64
	for k := range g.Children {
		if e.dead[k%e.cfg.NumPEs] {
			redispatched++
		}
	}
	if redispatched > 0 {
		fc.AddInt("redispatched_children", redispatched)
	}
}

// parentSize returns the gene count of parent pid, falling back to the
// child's crossover op count when the snapshot is missing.
func (e *Engine) parentSize(g *trace.Generation, c *trace.ChildRecord, pid int64) int {
	if sz, ok := g.ParentSizes[pid]; ok && sz > 0 {
		return sz
	}
	if n := int(c.GenesStreamed()); n > 0 {
		return n
	}
	return 1
}

// childStreamLen is the number of cycles a PE spends streaming this
// child: the longer of the two aligned parent streams.
func childStreamLen(g *trace.Generation, c *trace.ChildRecord) int {
	longest := 0
	for _, pid := range []int64{c.Parent1, c.Parent2} {
		if pid < 0 {
			continue
		}
		if sz := g.ParentSizes[pid]; sz > longest {
			longest = sz
		}
	}
	if n := int(c.GenesStreamed()); n > longest {
		longest = n
	}
	if longest == 0 {
		longest = 1
	}
	return longest
}

// childSize estimates the genes written back for this child: the
// inherited topology plus additions minus deletions.
func childSize(c *trace.ChildRecord, g *trace.Generation) int64 {
	base := c.Ops[neat.OpCrossover] // genes inherited through crossover
	if base == 0 {
		// Mutation-only child: clone of parent1.
		base = int64(g.ParentSizes[c.Parent1])
	}
	size := base + c.Ops[neat.OpAddNode] + c.Ops[neat.OpAddConn] -
		c.Ops[neat.OpDeleteNode] - c.Ops[neat.OpDeleteConn]
	if size < 1 {
		size = 1
	}
	return size
}
