package core

import "testing"

func TestNewRequiresWorkload(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Workload: "chess"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestAlgorithmOnlyRun(t *testing.T) {
	sys, err := New(Config{Workload: "cartpole", Seed: 3, Population: 50})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sys.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Generations == 0 {
		t.Fatal("no generations ran")
	}
	if sum.BestFitness <= 0 {
		t.Fatalf("best fitness %v", sum.BestFitness)
	}
	if sum.TotalCycles != 0 {
		t.Fatal("cycles accounted without hardware in loop")
	}
	if len(sys.History) != sum.Generations {
		t.Fatal("history length mismatch")
	}
	t.Logf("cartpole: solved=%v gens=%d best=%.1f", sum.Solved, sum.Generations, sum.BestFitness)
}

func TestHardwareInLoopRun(t *testing.T) {
	sys, err := New(Config{
		Workload: "mountaincar", Seed: 5, Population: 30, HardwareInLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunGeneration()
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasHW {
		t.Fatal("no hardware report")
	}
	if res.HW.TotalCycles <= 0 || res.HW.TotalEnergyPJ <= 0 {
		t.Fatalf("empty hardware account: %+v", res.HW)
	}
	if res.HW.Inference.ComputeCycles <= 0 || res.HW.Evolution.TotalCycles <= 0 {
		t.Fatal("phase accounting missing")
	}
	sum := sys.Summary()
	if sum.TotalCycles != res.HW.TotalCycles {
		t.Fatal("summary does not aggregate hardware cycles")
	}
}

func TestSummaryBestFitnessHandlesNegatives(t *testing.T) {
	sys, err := New(Config{Workload: "lunarlander", Seed: 13, Population: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunGeneration(); err != nil {
		t.Fatal(err)
	}
	sum := sys.Summary()
	// Early lunarlander generations are usually all-negative; the
	// summary must report the real maximum, not a zero clamp.
	if sum.BestFitness != sys.History[0].Stats.MaxFitness {
		t.Fatalf("summary best %v != generation max %v",
			sum.BestFitness, sys.History[0].Stats.MaxFitness)
	}
}

func TestDeterministicSystem(t *testing.T) {
	run := func() float64 {
		sys, err := New(Config{Workload: "cartpole", Seed: 11, Population: 30})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := sys.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		return sum.BestFitness
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}
