package adam

import (
	"testing"

	"repro/internal/gene"
	"repro/internal/hw/hwsim"
	"repro/internal/network"
)

// run resets e, charges one generation of jobs and returns that
// generation's ledger.
func run(e *Engine, jobs []Job) hwsim.Report {
	e.Reset()
	e.RunGeneration(jobs)
	return e.Counters().Snapshot()
}

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
	r := run(e, []Job{{Plan: p, Steps: 1}})
	// One tile: 32 stream + 32 drain cycles.
	if r.Int("pass_cycles") != 64 {
		t.Fatalf("pass cycles %d, want 64", r.Int("pass_cycles"))
	}
	if r.Int("dense_macs") != 8 || r.Int("useful_macs") != 8 {
		t.Fatalf("MACs %d/%d, want 8/8", r.Int("dense_macs"), r.Int("useful_macs"))
	}
}

func TestTilingLargeStage(t *testing.T) {
	e := New(serialConfig())
	p := planOf(t, 128, 18) // alien-ram-sized: 18×128 → 1×4 tiles
	r := run(e, []Job{{Plan: p, Steps: 1}})
	if r.Int("pass_cycles") != 4*64 {
		t.Fatalf("pass cycles %d, want 256", r.Int("pass_cycles"))
	}
	if r.Int("dense_macs") != 128*18 {
		t.Fatalf("dense MACs %d", r.Int("dense_macs"))
	}
}

func TestStepsMultiplyWork(t *testing.T) {
	e := New(DefaultConfig())
	p := planOf(t, 8, 3)
	one := run(e, []Job{{Plan: p, Steps: 1}})
	ten := run(e, []Job{{Plan: p, Steps: 10}})
	if ten.Int("compute_cycles") != 10*one.Int("compute_cycles") {
		t.Fatalf("compute cycles %d vs 10×%d", ten.Int("compute_cycles"), one.Int("compute_cycles"))
	}
	if ten.Int("dense_macs") != 10*one.Int("dense_macs") {
		t.Fatalf("MACs %d vs 10×%d", ten.Int("dense_macs"), one.Int("dense_macs"))
	}
	// Weight load happens once per generation regardless of steps.
	if ten.Int("weight_load_cycles") != one.Int("weight_load_cycles") {
		t.Fatalf("weight load grew with steps: %d vs %d",
			ten.Int("weight_load_cycles"), one.Int("weight_load_cycles"))
	}
}

func TestUtilizationBounds(t *testing.T) {
	e := New(DefaultConfig())
	p := planOf(t, 32, 32) // perfectly shaped stage
	u := run(e, []Job{{Plan: p, Steps: 5}}).Float("utilization")
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %v", u)
	}
	// Denser plans utilize the array better (Fig. 11a's point: more
	// connection genes → denser matrices → higher utilization).
	sparse := planOf(t, 2, 1)
	us := run(e, []Job{{Plan: sparse, Steps: 5}}).Float("utilization")
	if us >= u {
		t.Fatalf("sparse plan utilization %v >= dense %v", us, u)
	}
}

func TestEnergyComponents(t *testing.T) {
	cfg := DefaultConfig()
	p := planOf(t, 16, 4)
	r := run(New(cfg), []Job{{Plan: p, Steps: 3}})
	mac, sram := r.Float("mac_energy_pj"), r.Float("sram_energy_pj")
	if mac <= 0 || sram <= 0 {
		t.Fatalf("energy components %v/%v", mac, sram)
	}
	if r.Float("energy_pj") != mac+sram {
		t.Fatal("energy sum mismatch")
	}
	wantMAC := float64(r.Int("dense_macs")) * cfg.MACEnergyPJ
	if mac != wantMAC {
		t.Fatalf("MAC energy %v, want %v", mac, wantMAC)
	}
}

func TestEmptyGeneration(t *testing.T) {
	r := run(New(DefaultConfig()), nil)
	if r.Int("total_cycles") != 0 || r.Float("energy_pj") != 0 {
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
	r := run(e, jobs).Int("compute_cycles")
	single := run(e, jobs[:1]).Int("compute_cycles")
	if r != 150*single {
		t.Fatalf("population cycles %d vs 150×%d", r, single)
	}
}

func TestVectorizeBound(t *testing.T) {
	// With an expensive CPU pack, wide stages become vectorize-bound.
	cfg := serialConfig()
	cfg.VectorizeCyclesPerElement = 100
	e := New(cfg)
	p := planOf(t, 64, 1)
	r := run(e, []Job{{Plan: p, Steps: 1}})
	if r.Int("pass_cycles") != 64*100 {
		t.Fatalf("vectorize-bound pass %d, want 6400", r.Int("pass_cycles"))
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
	packed := run(New(DefaultConfig()), jobs)
	serial := run(New(serialConfig()), jobs)
	if packed.Int("compute_cycles")*10 > serial.Int("compute_cycles") {
		t.Fatalf("packed %d cycles not ≥10× faster than serial %d",
			packed.Int("compute_cycles"), serial.Int("compute_cycles"))
	}
	// Work and energy are identical; only scheduling differs.
	if packed.Int("dense_macs") != serial.Int("dense_macs") ||
		packed.Int("sram_reads") != serial.Int("sram_reads") {
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
	r := run(New(DefaultConfig()), jobs)
	firstRound, compute := r.Int("pass_cycles"), r.Int("compute_cycles")
	if compute >= firstRound*100 {
		t.Fatalf("ragged steps not exploited: %d vs %d×100", compute, firstRound)
	}
	if compute < firstRound*10 {
		t.Fatalf("compute %d below 10 full rounds", compute)
	}
}
