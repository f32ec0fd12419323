// Package soc assembles the GeneSys SoC from its components — EvE,
// ADAM, the genome buffer SRAM, the NoC and the system-CPU threads —
// and accounts full generations of the Section IV-B walkthrough:
// inference over the population (steps 1–6), selection (step 7) and
// reproduction (steps 8–10).
package soc

import (
	"repro/internal/hw/adam"
	"repro/internal/hw/energy"
	"repro/internal/hw/eve"
	"repro/internal/hw/fault"
	"repro/internal/hw/hwsim"
	"repro/internal/hw/noc"
	"repro/internal/hw/sram"
	"repro/internal/trace"
)

// SoC is one configured GeneSys chip. It is the root of a hwsim
// counter tree: its "soc" counter node adopts the EvE ("soc/eve",
// with "soc/eve/pe" and "soc/eve/noc" below it), ADAM ("soc/adam"),
// genome buffer ("soc/sram") and static technology ("soc/tech") nodes,
// so one snapshot yields the full chip ledger. When the design point
// configures a fault environment, the chip also owns a fault.Plan and
// adopts its reliability ledger ("soc/fault" with "sram"/"noc"/"eve"
// scopes below it); a zero fault.Config leaves the tree untouched.
//
// The chip itself charges only generations, footprint_bytes (the
// genome-buffer working set) and spills (generations whose working set
// exceeded on-chip capacity). Its snapshot hook derives the rest from
// the children's counters, whose own hooks have already run:
//
//   - the Fig. 10c time split: scratchpad_to_adam_cycles and
//     adam_to_scratchpad_cycles (ADAM's SRAM traffic over the banked
//     scratchpad's bandwidth) against inference_compute_cycles, and
//     data_movement_fraction, the transfers' share of inference time
//     (the ~15% the paper reports for GeneSys);
//   - total_cycles, which serializes the phases (the paper's reported
//     split), and overlapped_cycles, which applies the step-10
//     pipelining remark (children launch over ADAM as they become
//     ready), bounded below by the serial selector;
//   - total_seconds, energy_pj (ADAM's plus EvE's) and
//     average_power_mw.
type SoC struct {
	Cfg  energy.SoCConfig
	EvE  *eve.Engine
	ADAM *adam.Engine
	Buf  *sram.Buffer
	// Faults is the chip's fault injector; nil on a perfect chip.
	Faults *fault.Plan

	ctr *hwsim.Counters
}

// New builds the SoC for a design point.
func New(cfg energy.SoCConfig) *SoC {
	buf := sram.New(sram.Config{
		Banks:     cfg.Tech.SRAMBanks,
		Depth:     cfg.SRAMKB * 1024 / 8 / cfg.Tech.SRAMBanks,
		AccessPJ:  cfg.Tech.ESRAMAccess,
		PortsEach: 1,
	})
	kind := noc.PointToPoint
	if cfg.Multicast {
		kind = noc.MulticastTree
	}
	ecfg := eve.DefaultConfig(cfg.NumEvEPEs, kind)
	ecfg.NoC.SRAMReadsPerCycle = cfg.Tech.SRAMBanks
	ecfg.NoC.HopEnergyPJ = cfg.Tech.ENoCHop
	ecfg.OpEnergyPJ = cfg.Tech.EEvEOp
	acfg := adam.DefaultConfig()
	acfg.Rows, acfg.Cols = cfg.ADAMRows, cfg.ADAMCols
	acfg.MACEnergyPJ = cfg.Tech.EMAC
	acfg.SRAMAccessPJ = cfg.Tech.ESRAMAccess
	s := &SoC{
		Cfg:  cfg,
		EvE:  eve.New(ecfg, buf),
		ADAM: adam.New(acfg),
		Buf:  buf,
		ctr:  hwsim.New("soc"),
	}
	if cfg.Fault.Enabled() {
		s.Faults = fault.NewPlan(cfg.Fault)
		s.Buf.AttachFaults(s.Faults)
		s.EvE.AttachFaults(s.Faults)
		s.ctr.Adopt(s.Faults.Counters())
	}
	s.ctr.Adopt(s.EvE.Counters())
	s.ctr.Adopt(s.ADAM.Counters())
	s.ctr.Adopt(buf.Counters())
	s.ctr.Adopt(energy.NewModel(cfg).Counters())
	ev, ad := s.EvE.Counters(), s.ADAM.Counters()
	bw := int64(buf.Config().Banks * buf.Config().PortsEach)
	s.ctr.OnSnapshot(func(c *hwsim.Counters) {
		// Inference-phase transfers ride the banked scratchpad: reads feed
		// the array, writes return vertex values.
		toADAM := (ad.IntValue("sram_reads") + bw - 1) / bw
		fromADAM := (ad.IntValue("sram_writes") + bw - 1) / bw
		compute := ad.IntValue("compute_cycles")
		c.SetInt("scratchpad_to_adam_cycles", toADAM)
		c.SetInt("adam_to_scratchpad_cycles", fromADAM)
		c.SetInt("inference_compute_cycles", compute)
		if move := toADAM + fromADAM; move+compute > 0 {
			c.SetFloat("data_movement_fraction", float64(move)/float64(move+compute))
		}

		// Transfers overlap with compute only partially; the paper's
		// GeneSys split (Fig. 10c) counts them additively, as do we.
		inferCycles := ad.IntValue("total_cycles") + toADAM + fromADAM
		evolveCycles, selector := ev.IntValue("total_cycles"), ev.IntValue("selector_cycles")
		total := inferCycles + evolveCycles
		c.SetInt("total_cycles", total)
		// Step 10 of the walkthrough: "as each child genome becomes ready,
		// it can be launched over ADAM once again" — with phase overlap
		// the generation takes the longer phase plus the serial selector,
		// not the sum.
		c.SetInt("overlapped_cycles", selector+max(inferCycles, evolveCycles-selector))

		sec := cfg.CyclesToSeconds(total)
		energyPJ := ad.FloatValue("energy_pj") + ev.FloatValue("energy_pj")
		c.SetFloat("total_seconds", sec)
		c.SetFloat("energy_pj", energyPJ)
		if sec > 0 {
			// pJ / s = pW; convert to mW.
			c.SetFloat("average_power_mw", energyPJ/sec*1e-9)
		}
	})
	return s
}

// Counters returns the live root of the chip's counter tree.
func (s *SoC) Counters() *hwsim.Counters { return s.ctr }

// Reset zeroes the whole tree (every component) for a fresh
// accounting interval, e.g. per-generation snapshots.
func (s *SoC) Reset() { s.ctr.Reset() }

// Snapshot returns the full chip ledger as a structured report tree.
func (s *SoC) Snapshot() hwsim.Report { return s.ctr.Snapshot() }

// RunGeneration accounts one generation: the population's inference
// jobs and, when g is not nil, its reproduction trace.
func (s *SoC) RunGeneration(jobs []adam.Job, g *trace.Generation, footprintBytes int) {
	s.Buf.SetResidency(footprintBytes / 8)
	c := s.ctr
	c.AddInt("generations", 1)
	c.SetInt("footprint_bytes", int64(footprintBytes))
	if !s.Buf.Resident() {
		c.AddInt("spills", 1)
	}
	s.ADAM.RunGeneration(jobs)
	if g != nil {
		s.EvE.RunGeneration(g)
	}
}
