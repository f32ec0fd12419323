package soc

import (
	"context"
	"testing"

	"repro/internal/evolve"
	"repro/internal/hw/adam"
	"repro/internal/hw/energy"
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

func TestFullGenerationReport(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	s := New(energy.DefaultSoC())
	r := s.RunGeneration(jobs, gen, footprint)

	if r.TotalCycles <= 0 || r.TotalSeconds <= 0 {
		t.Fatalf("degenerate time: %+v", r)
	}
	if r.TotalEnergyPJ <= 0 {
		t.Fatal("no energy accounted")
	}
	if r.Inference.ComputeCycles <= 0 || r.Evolution.TotalCycles <= 0 {
		t.Fatal("phase cycles missing")
	}
	if r.Spilled {
		t.Fatal("cartpole population spilled the 1.5 MB buffer")
	}
	if f := r.DataMovementFraction(); f <= 0 || f >= 1 {
		t.Fatalf("data movement fraction %v", f)
	}
}

func TestAveragePowerBelowRoofline(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	cfg := energy.DefaultSoC()
	s := New(cfg)
	r := s.RunGeneration(jobs, gen, footprint)
	roof := cfg.RooflinePower().Total
	if r.AveragePowerMW <= 0 {
		t.Fatal("no average power")
	}
	// The paper calls the roofline "overly pessimistic"; the activity-
	// derived average must come in below it.
	if r.AveragePowerMW >= roof {
		t.Fatalf("average power %.1f mW above roofline %.1f mW",
			r.AveragePowerMW, roof)
	}
}

func TestRAMWorkloadOnChip(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "asterix-ram", 20)
	s := New(energy.DefaultSoC())
	r := s.RunGeneration(jobs, gen, footprint)
	// 20 asterix genomes ≈ 26k genes ≈ 200 KB: fits in 1.5 MB.
	if r.Spilled {
		t.Fatalf("footprint %d B spilled the buffer", r.FootprintBytes)
	}
	if r.Inference.DenseMACs <= 0 {
		t.Fatal("no inference work")
	}
}

func TestMulticastConfigFlowsThrough(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	mc := energy.DefaultSoC()
	p2p := energy.DefaultSoC()
	p2p.Multicast = false
	rMC := New(mc).RunGeneration(jobs, gen, footprint)
	rP2P := New(p2p).RunGeneration(jobs, gen, footprint)
	if rMC.Evolution.SRAMReads >= rP2P.Evolution.SRAMReads {
		t.Fatalf("multicast SoC reads %d not below p2p %d",
			rMC.Evolution.SRAMReads, rP2P.Evolution.SRAMReads)
	}
}

func TestOverlappedCyclesBounds(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	s := New(energy.DefaultSoC())
	r := s.RunGeneration(jobs, gen, footprint)
	if r.OverlappedCycles <= 0 {
		t.Fatal("no overlapped cycle count")
	}
	if r.OverlappedCycles > r.TotalCycles {
		t.Fatalf("overlap (%d) exceeds serial total (%d)",
			r.OverlappedCycles, r.TotalCycles)
	}
	// Overlap can never beat the longer phase alone.
	inferCycles := r.Inference.TotalCycles +
		r.ScratchpadToADAMCycles + r.ADAMToScratchpadCycles
	if r.OverlappedCycles < inferCycles || r.OverlappedCycles < r.Evolution.TotalCycles {
		t.Fatalf("overlap %d below a single phase (infer %d, evolve %d)",
			r.OverlappedCycles, inferCycles, r.Evolution.TotalCycles)
	}
}

func TestNilTraceGeneration(t *testing.T) {
	jobs, _, footprint := evolveWorkload(t, "cartpole", 10)
	s := New(energy.DefaultSoC())
	r := s.RunGeneration(jobs, nil, footprint)
	if r.Evolution.TotalCycles != 0 {
		t.Fatal("nil trace produced evolution cycles")
	}
	if r.Inference.ComputeCycles <= 0 {
		t.Fatal("inference missing")
	}
}
