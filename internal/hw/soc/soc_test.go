package soc

import (
	"context"
	"testing"

	"repro/internal/evolve"
	"repro/internal/hw/adam"
	"repro/internal/hw/energy"
	"repro/internal/hw/hwsim"
	"repro/internal/neat"
	"repro/internal/trace"
)

// evolveWorkload runs a short real evolution and returns the SoC inputs
// for its last generation: inference jobs, the reproduction trace and
// the footprint.
func evolveWorkload(t testing.TB, workload string, pop int) ([]adam.Job, *trace.Generation, int) {
	t.Helper()
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = pop
	r, err := evolve.NewRunner(workload, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{}
	r.SetRecorder(tr)
	var jobs []adam.Job
	for gen := 0; gen < 2; gen++ {
		// Build jobs from the population *before* it reproduces.
		if jobs, err = adam.JobsFor(r.Pop.Genomes, 50); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return jobs, tr.Last(), r.Pop.FootprintBytes()
}

// runChip accounts one generation on a fresh chip at cfg and returns
// its ledger.
func runChip(cfg energy.SoCConfig, jobs []adam.Job, g *trace.Generation, footprint int) hwsim.Report {
	s := New(cfg)
	s.RunGeneration(jobs, g, footprint)
	return s.Snapshot()
}

func TestFullGenerationReport(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	r := runChip(energy.DefaultSoC(), jobs, gen, footprint)

	if r.Int("total_cycles") <= 0 || r.Float("total_seconds") <= 0 {
		t.Fatalf("degenerate time: %+v", r)
	}
	if r.Float("energy_pj") <= 0 {
		t.Fatal("no energy accounted")
	}
	if r.Int("adam/compute_cycles") <= 0 || r.Int("eve/total_cycles") <= 0 {
		t.Fatal("phase cycles missing")
	}
	if r.Int("spills") != 0 {
		t.Fatal("cartpole population spilled the 1.5 MB buffer")
	}
	if f := r.Float("data_movement_fraction"); f <= 0 || f >= 1 {
		t.Fatalf("data movement fraction %v", f)
	}
}

func TestAveragePowerBelowRoofline(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	cfg := energy.DefaultSoC()
	power := runChip(cfg, jobs, gen, footprint).Float("average_power_mw")
	roof := cfg.RooflinePower().Total
	if power <= 0 {
		t.Fatal("no average power")
	}
	// The paper calls the roofline "overly pessimistic"; the activity-
	// derived average must come in below it.
	if power >= roof {
		t.Fatalf("average power %.1f mW above roofline %.1f mW", power, roof)
	}
}

func TestRAMWorkloadOnChip(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "asterix-ram", 20)
	r := runChip(energy.DefaultSoC(), jobs, gen, footprint)
	// 20 asterix genomes ≈ 26k genes ≈ 200 KB: fits in 1.5 MB.
	if r.Int("spills") != 0 {
		t.Fatalf("footprint %d B spilled the buffer", r.Int("footprint_bytes"))
	}
	if r.Int("adam/dense_macs") <= 0 {
		t.Fatal("no inference work")
	}
}

func TestMulticastConfigFlowsThrough(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	mc := energy.DefaultSoC()
	p2p := energy.DefaultSoC()
	p2p.Multicast = false
	rMC := runChip(mc, jobs, gen, footprint).Int("eve/sram_reads")
	rP2P := runChip(p2p, jobs, gen, footprint).Int("eve/sram_reads")
	if rMC >= rP2P {
		t.Fatalf("multicast SoC reads %d not below p2p %d", rMC, rP2P)
	}
}

func TestOverlappedCyclesBounds(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	r := runChip(energy.DefaultSoC(), jobs, gen, footprint)
	overlapped, evolveCycles := r.Int("overlapped_cycles"), r.Int("eve/total_cycles")
	if overlapped <= 0 {
		t.Fatal("no overlapped cycle count")
	}
	if overlapped > r.Int("total_cycles") {
		t.Fatalf("overlap (%d) exceeds serial total (%d)", overlapped, r.Int("total_cycles"))
	}
	// Overlap can never beat the longer phase alone.
	inferCycles := r.Int("adam/total_cycles") +
		r.Int("scratchpad_to_adam_cycles") + r.Int("adam_to_scratchpad_cycles")
	if overlapped < inferCycles || overlapped < evolveCycles {
		t.Fatalf("overlap %d below a single phase (infer %d, evolve %d)",
			overlapped, inferCycles, evolveCycles)
	}
}

func TestNilTraceGeneration(t *testing.T) {
	jobs, _, footprint := evolveWorkload(t, "cartpole", 10)
	r := runChip(energy.DefaultSoC(), jobs, nil, footprint)
	if r.Int("eve/total_cycles") != 0 {
		t.Fatal("nil trace produced evolution cycles")
	}
	if r.Int("adam/compute_cycles") <= 0 {
		t.Fatal("inference missing")
	}
}

// TestResetGivesPerGenerationLedgers checks that Reset between
// generations makes consecutive snapshots independent: the second
// snapshot reflects only the second generation, and statics (tech
// areas, sram capacity) survive the reset.
func TestResetGivesPerGenerationLedgers(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	s := New(energy.DefaultSoC())

	s.RunGeneration(jobs, gen, footprint)
	first := s.Snapshot()
	s.Reset()
	s.RunGeneration(jobs, gen, footprint)
	second := s.Snapshot()

	if g := second.Int("generations"); g != 1 {
		t.Fatalf("second ledger counts %d generations, want 1", g)
	}
	// The first ledger is a fresh chip's: a reset chip must match it.
	if first.Int("total_cycles") != second.Int("total_cycles") {
		t.Fatalf("same generation replayed, ledgers differ: %d vs %d",
			first.Int("total_cycles"), second.Int("total_cycles"))
	}
	if a := second.Float("tech/area/total_mm2"); a <= 0 {
		t.Fatalf("tech statics lost across reset: total area %v", a)
	}
	if c := second.Int("sram/capacity_words"); c <= 0 {
		t.Fatalf("sram capacity lost across reset: %d", c)
	}
}
