package adam

import (
	"testing"

	"repro/internal/gene"
	"repro/internal/network"
)

// planOf builds a plan for a simple dense genome: ins fully connected
// to outs.
func planOf(t *testing.T, ins, outs int) network.Plan {
	t.Helper()
	g := gene.NewGenome(1)
	for i := 0; i < ins; i++ {
		g.PutNode(gene.NewNode(int32(i), gene.Input))
	}
	for o := 0; o < outs; o++ {
		g.PutNode(gene.NewNode(int32(ins+o), gene.Output))
	}
	for i := 0; i < ins; i++ {
		for o := 0; o < outs; o++ {
			g.PutConn(gene.NewConn(int32(i), int32(ins+o), 0.5))
		}
	}
	n, err := network.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return n.BuildPlan()
}

// serialConfig returns the genome-at-a-time tiling mode used by the
// scheduling ablation.
func serialConfig() Config {
	cfg := DefaultConfig()
	cfg.Packed = false
	return cfg
}

func TestSingleTileStage(t *testing.T) {
	e := New(serialConfig())
	p := planOf(t, 4, 2) // 2×4 matrix: one 32×32 tile
	r := e.RunGeneration([]Job{{Plan: p, Steps: 1}})
	// One tile: 32 stream + 32 drain cycles.
	if r.PassCycles != 64 {
		t.Fatalf("pass cycles %d, want 64", r.PassCycles)
	}
	if r.DenseMACs != 8 || r.UsefulMACs != 8 {
		t.Fatalf("MACs %d/%d, want 8/8", r.DenseMACs, r.UsefulMACs)
	}
}

func TestTilingLargeStage(t *testing.T) {
	e := New(serialConfig())
	p := planOf(t, 128, 18) // alien-ram-sized: 18×128 → 1×4 tiles
	r := e.RunGeneration([]Job{{Plan: p, Steps: 1}})
	if r.PassCycles != 4*64 {
		t.Fatalf("pass cycles %d, want 256", r.PassCycles)
	}
	if r.DenseMACs != 128*18 {
		t.Fatalf("dense MACs %d", r.DenseMACs)
	}
}

func TestStepsMultiplyWork(t *testing.T) {
	e := New(DefaultConfig())
	p := planOf(t, 8, 3)
	one := e.RunGeneration([]Job{{Plan: p, Steps: 1}})
	ten := e.RunGeneration([]Job{{Plan: p, Steps: 10}})
	if ten.ComputeCycles != 10*one.ComputeCycles {
		t.Fatalf("compute cycles %d vs 10×%d", ten.ComputeCycles, one.ComputeCycles)
	}
	if ten.DenseMACs != 10*one.DenseMACs {
		t.Fatalf("MACs %d vs 10×%d", ten.DenseMACs, one.DenseMACs)
	}
	// Weight load happens once per generation regardless of steps.
	if ten.WeightLoadCycles != one.WeightLoadCycles {
		t.Fatalf("weight load grew with steps: %d vs %d",
			ten.WeightLoadCycles, one.WeightLoadCycles)
	}
}

func TestUtilizationBounds(t *testing.T) {
	e := New(DefaultConfig())
	p := planOf(t, 32, 32) // perfectly shaped stage
	r := e.RunGeneration([]Job{{Plan: p, Steps: 5}})
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Fatalf("utilization %v", r.Utilization)
	}
	// Denser plans utilize the array better (Fig. 11a's point: more
	// connection genes → denser matrices → higher utilization).
	sparse := planOf(t, 2, 1)
	rs := e.RunGeneration([]Job{{Plan: sparse, Steps: 5}})
	if rs.Utilization >= r.Utilization {
		t.Fatalf("sparse plan utilization %v >= dense %v", rs.Utilization, r.Utilization)
	}
}

func TestEnergyComponents(t *testing.T) {
	e := New(DefaultConfig())
	p := planOf(t, 16, 4)
	r := e.RunGeneration([]Job{{Plan: p, Steps: 3}})
	if r.MACEnergyPJ <= 0 || r.SRAMEnergyPJ <= 0 {
		t.Fatalf("energy components %v/%v", r.MACEnergyPJ, r.SRAMEnergyPJ)
	}
	if r.TotalEnergyPJ() != r.MACEnergyPJ+r.SRAMEnergyPJ {
		t.Fatal("energy sum mismatch")
	}
	wantMAC := float64(r.DenseMACs) * e.Config().MACEnergyPJ
	if r.MACEnergyPJ != wantMAC {
		t.Fatalf("MAC energy %v, want %v", r.MACEnergyPJ, wantMAC)
	}
}

func TestEmptyGeneration(t *testing.T) {
	e := New(DefaultConfig())
	r := e.RunGeneration(nil)
	if r.TotalCycles != 0 || r.TotalEnergyPJ() != 0 {
		t.Fatalf("empty generation accounted %+v", r)
	}
}

func TestPopulationAccumulatesSerial(t *testing.T) {
	e := New(serialConfig())
	p := planOf(t, 4, 2)
	jobs := make([]Job, 150)
	for i := range jobs {
		jobs[i] = Job{Plan: p, Steps: 100}
	}
	r := e.RunGeneration(jobs)
	single := e.RunGeneration(jobs[:1])
	if r.ComputeCycles != 150*single.ComputeCycles {
		t.Fatalf("population cycles %d vs 150×%d", r.ComputeCycles, single.ComputeCycles)
	}
}

func TestVectorizeBound(t *testing.T) {
	// With an expensive CPU pack, wide stages become vectorize-bound.
	cfg := serialConfig()
	cfg.VectorizeCyclesPerElement = 100
	e := New(cfg)
	p := planOf(t, 64, 1)
	r := e.RunGeneration([]Job{{Plan: p, Steps: 1}})
	if r.PassCycles != 64*100 {
		t.Fatalf("vectorize-bound pass %d, want 6400", r.PassCycles)
	}
}

func TestPackedBeatsSerialOnPopulation(t *testing.T) {
	// 150 tiny genomes: packed scheduling shares the array across the
	// population (PLP) and must be far faster than genome-at-a-time.
	p := planOf(t, 4, 2)
	jobs := make([]Job, 150)
	for i := range jobs {
		jobs[i] = Job{Plan: p, Steps: 200}
	}
	packed := New(DefaultConfig()).RunGeneration(jobs)
	serial := New(serialConfig()).RunGeneration(jobs)
	if packed.ComputeCycles*10 > serial.ComputeCycles {
		t.Fatalf("packed %d cycles not ≥10× faster than serial %d",
			packed.ComputeCycles, serial.ComputeCycles)
	}
	// Work and energy are identical; only scheduling differs.
	if packed.DenseMACs != serial.DenseMACs || packed.SRAMReads != serial.SRAMReads {
		t.Fatal("scheduling changed the work accounting")
	}
}

func TestPackedHandlesRaggedSteps(t *testing.T) {
	// Episodes ending at different steps: later rounds pack fewer
	// genomes. With a MAC-dominated population (RAM-game-sized plans),
	// compute must come in well under maxSteps × first-round cost.
	p := planOf(t, 128, 18)
	jobs := make([]Job, 100)
	for i := range jobs {
		steps := 10
		if i%2 == 0 {
			steps = 100
		}
		jobs[i] = Job{Plan: p, Steps: steps}
	}
	r := New(DefaultConfig()).RunGeneration(jobs)
	firstRound := r.PassCycles
	if r.ComputeCycles >= firstRound*100 {
		t.Fatalf("ragged steps not exploited: %d vs %d×100",
			r.ComputeCycles, firstRound)
	}
	if r.ComputeCycles < firstRound*10 {
		t.Fatalf("compute %d below 10 full rounds", r.ComputeCycles)
	}
}
