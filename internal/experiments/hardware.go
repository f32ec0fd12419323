package experiments

import (
	"fmt"

	"repro/internal/hw/adam"
	"repro/internal/hw/energy"
	"repro/internal/hw/eve"
	"repro/internal/hw/hwsim"
	"repro/internal/hw/noc"
	"repro/internal/hw/soc"
	"repro/internal/trace"
)

func init() {
	register("fig8a", Fig8a)
	register("fig8b", Fig8b)
	register("fig8c", Fig8c)
	register("fig11b", Fig11b)
	register("fig11c", Fig11c)
}

// peSweep is the PE-count axis of Fig. 8b/8c and Fig. 11.
var peSweep = []int{2, 4, 8, 16, 32, 64, 128, 256, 512}

// Fig8a regenerates the SoC parameter table.
func Fig8a(opt Options) (*Result, error) {
	cfg := energy.DefaultSoC()
	a := cfg.Area()
	p := cfg.RooflinePower()
	r := &Result{ID: "fig8a", Title: "GeneSys SoC parameters (15 nm, 200 MHz, 1.0 V)"}
	t := Table{
		Header: []string{"parameter", "value", "paper"},
		Rows: [][]string{
			{"Num EvE PE", inum(cfg.NumEvEPEs), "256"},
			{"Num ADAM PE", inum(cfg.MACs()), "1024"},
			{"EvE area (mm2)", fnum(a.EvE), "0.89"},
			{"ADAM area (mm2)", fnum(a.ADAM), "0.25"},
			{"GeneSys area (mm2)", fnum(a.Total), "2.45"},
			{"Power (mW)", fnum(p.Total), "947.5"},
			{"SRAM banks", inum(cfg.Tech.SRAMBanks), "48"},
			{"SRAM depth", inum(cfg.Tech.SRAMDepth), "4096"},
		},
	}
	r.series("area", a.Total)
	r.series("power", p.Total)
	r.Tables = append(r.Tables, t)
	return r, nil
}

// Fig8b regenerates the roofline-power sweep over EvE PE count. Design
// points are independent, so they evaluate in parallel; rows and
// series are assembled from the index-ordered slots, byte-identical to
// the serial sweep.
func Fig8b(opt Options) (*Result, error) {
	r := &Result{ID: "fig8b", Title: "Roofline power vs EvE PE count"}
	t := Table{Header: []string{"PEs", "EvE-mW", "SRAM-mW", "ADAM-mW", "M0-mW", "net-mW"}}
	powers := make([]energy.PowerBreakdown, len(peSweep))
	if err := forIndexed(opt.workers(), len(peSweep), func(i int) error {
		cfg := energy.DefaultSoC()
		cfg.NumEvEPEs = peSweep[i]
		powers[i] = cfg.RooflinePower()
		return nil
	}); err != nil {
		return nil, err
	}
	for i, n := range peSweep {
		p := powers[i]
		t.Rows = append(t.Rows, []string{
			inum(n), fnum(p.EvE), fnum(p.SRAM), fnum(p.ADAM), fnum(p.CPU), fnum(p.Total),
		})
		r.series("net", p.Total)
	}
	t.Notes = append(t.Notes, "paper: 256 PEs stay comfortably under 1 W")
	r.Tables = append(r.Tables, t)
	return r, nil
}

// Fig8c regenerates the area sweep over EvE PE count (parallel design
// points, index-ordered rows, like Fig8b).
func Fig8c(opt Options) (*Result, error) {
	r := &Result{ID: "fig8c", Title: "Area footprint vs EvE PE count"}
	t := Table{Header: []string{"PEs", "EvE-mm2", "SRAM-mm2", "ADAM-mm2", "M0-mm2", "total-mm2"}}
	areas := make([]energy.AreaBreakdown, len(peSweep))
	if err := forIndexed(opt.workers(), len(peSweep), func(i int) error {
		cfg := energy.DefaultSoC()
		cfg.NumEvEPEs = peSweep[i]
		areas[i] = cfg.Area()
		return nil
	}); err != nil {
		return nil, err
	}
	for i, n := range peSweep {
		a := areas[i]
		t.Rows = append(t.Rows, []string{
			inum(n), fnum(a.EvE), fnum(a.SRAM), fnum(a.ADAM), fnum(a.CPU), fnum(a.Total),
		})
		r.series("total", a.Total)
	}
	r.Tables = append(r.Tables, t)
	return r, nil
}

// atariTraceGen produces a representative RAM-workload reproduction
// generation for the NoC/PE sweeps.
func atariTraceGen(opt Options) (*trace.Generation, error) {
	e, err := runWorkload("alien-ram", opt)
	if err != nil {
		return nil, err
	}
	g := e.trace.Last()
	if g == nil {
		return nil, fmt.Errorf("experiments: alien-ram run produced no trace")
	}
	return g, nil
}

// Fig11b regenerates the SRAM-reads-per-cycle comparison: point-to-
// point buses vs the multicast tree, across PE counts, on an Atari
// trace.
func Fig11b(opt Options) (*Result, error) {
	g, err := atariTraceGen(opt)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "fig11b", Title: "SRAM reads: point-to-point vs multicast tree"}
	t := Table{Header: []string{"PEs", "p2p-reads", "mcast-reads", "p2p-rd/cyc", "mcast-rd/cyc", "reduction"}}
	var sweep []int
	for _, n := range peSweep {
		if n <= 256 { // the paper's Fig 11b sweeps 2..256
			sweep = append(sweep, n)
		}
	}
	// Each design point replays the same trace generation on two private
	// engines; RunGeneration only reads the trace, so the points fan out
	// across workers and land in index-ordered snapshot slots.
	type nocPoint struct{ p2p, mc hwsim.Report }
	points := make([]nocPoint, len(sweep))
	if err := forIndexed(opt.workers(), len(sweep), func(i int) error {
		n := sweep[i]
		// An unthrottled SRAM exposes the raw read-rate demand of each
		// topology (the paper's y-axis), rather than the bandwidth-
		// clamped service rate.
		p2pCfg := eve.DefaultConfig(n, noc.PointToPoint)
		p2pCfg.NoC.SRAMReadsPerCycle = 1 << 20
		mcCfg := eve.DefaultConfig(n, noc.MulticastTree)
		mcCfg.NoC.SRAMReadsPerCycle = 1 << 20
		p2pEng := eve.New(p2pCfg, nil)
		mcEng := eve.New(mcCfg, nil)
		p2pEng.RunGeneration(g)
		mcEng.RunGeneration(g)
		// Read the results off the engines' counter registries — the
		// uniform ledger every hardware block charges.
		points[i] = nocPoint{
			p2p: p2pEng.Counters().Snapshot(),
			mc:  mcEng.Counters().Snapshot(),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, n := range sweep {
		p2p, mc := points[i].p2p, points[i].mc
		red := float64(p2p.Int("sram_reads")) / float64(mc.Int("sram_reads"))
		t.Rows = append(t.Rows, []string{
			inum(n), inum(p2p.Int("sram_reads")), inum(mc.Int("sram_reads")),
			fnum(p2p.Float("reads_per_cycle")), fnum(mc.Float("reads_per_cycle")), fnum(red),
		})
		r.series("p2pRate", p2p.Float("reads_per_cycle"))
		r.series("mcastRate", mc.Float("reads_per_cycle"))
		r.series("reduction", red)
	}
	t.Notes = append(t.Notes, "paper: >100× read reduction with multicast at high PE counts")
	r.Tables = append(r.Tables, t)
	return r, nil
}

// Fig11c regenerates the SRAM-energy and generation-runtime sweep over
// EvE PE count, with ADAM runtime for reference.
func Fig11c(opt Options) (*Result, error) {
	e, err := runWorkload("alien-ram", opt)
	if err != nil {
		return nil, err
	}
	g := e.trace.Last()
	if g == nil {
		return nil, fmt.Errorf("experiments: no trace generation")
	}
	// ADAM single-sweep runtime for the same generation (constant
	// across the EvE sweep, as in the paper).
	jobs, err := adam.JobsFor(e.runner.Pop.Genomes, 1)
	if err != nil {
		return nil, err
	}
	adamEng := soc.New(energy.DefaultSoC()).ADAM
	adamEng.RunGeneration(jobs)
	adamCycles := adamEng.Counters().IntValue("pass_cycles")

	r := &Result{ID: "fig11c", Title: "SRAM energy & generation runtime vs EvE PE count"}
	t := Table{Header: []string{"PEs", "EvE-cycles", "ADAM-cycles", "SRAM-uJ"}}
	snaps := make([]hwsim.Report, len(peSweep))
	if err := forIndexed(opt.workers(), len(peSweep), func(i int) error {
		cfg := eve.DefaultConfig(peSweep[i], noc.MulticastTree)
		eng := eve.New(cfg, nil)
		eng.RunGeneration(g)
		snaps[i] = eng.Counters().Snapshot()
		return nil
	}); err != nil {
		return nil, err
	}
	for i, n := range peSweep {
		rep := snaps[i]
		t.Rows = append(t.Rows, []string{
			inum(n), inum(rep.Int("stream_cycles")), inum(adamCycles),
			fnum(rep.Float("sram_energy_pj") / 1e6),
		})
		r.series("eveCycles", float64(rep.Int("stream_cycles")))
		r.series("sramUJ", rep.Float("sram_energy_pj")/1e6)
	}
	r.series("adamCycles", float64(adamCycles))
	t.Notes = append(t.Notes,
		"paper: SRAM energy falls near-monotonically with PEs (multicast GLR);",
		"evolution is compute-bound at low PE counts, tapering at the population size")
	r.Tables = append(r.Tables, t)
	return r, nil
}
