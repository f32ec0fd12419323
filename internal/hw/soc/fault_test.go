package soc

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/hw/energy"
	"repro/internal/hw/fault"
)

// faultySoC is a design point with every fault class active. The
// rates are far above field rates so that the short test workload
// (tens of SRAM words, hundreds of flits) still exercises every
// detection/correction path.
func faultySoC(ecc fault.ECC) energy.SoCConfig {
	cfg := energy.DefaultSoC()
	cfg.Fault = fault.Config{
		Seed:              99,
		SRAMWordFlip:      0.2,
		DoubleBitFraction: 0.1,
		ECC:               ecc,
		NoCFlitDrop:       1e-2,
		PEStuckAt:         0.05,
	}
	return cfg
}

// TestZeroFaultConfigIsStructuralNoOp pins the acceptance criterion
// that an all-zero fault.Config changes nothing: no injector is built
// and the snapshot tree is byte-identical to the pre-fault-layer chip
// (no "fault" node, no ECC counters anywhere).
func TestZeroFaultConfigIsStructuralNoOp(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	s := New(energy.DefaultSoC())
	if s.Faults != nil {
		t.Fatal("zero fault config built an injector")
	}
	s.RunGeneration(jobs, gen, footprint)
	snap := s.Snapshot()
	for _, child := range snap.Children {
		if child.Name == "fault" {
			t.Fatal("zero fault config grew a fault node")
		}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("fault")) || bytes.Contains(data, []byte("ecc")) {
		t.Fatalf("fault bookkeeping leaked into a fault-free snapshot")
	}
}

// TestFaultInjectionDeterministic pins the other half of the
// criterion: the same seed replaying the same generation yields
// byte-identical snapshots, fault sites included.
func TestFaultInjectionDeterministic(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	run := func() []byte {
		s := New(faultySoC(fault.SECDED))
		s.RunGeneration(jobs, gen, footprint)
		data, err := json.Marshal(s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different snapshots:\n%s\nvs\n%s", a, b)
	}
}

// TestFaultLedgerPopulated exercises every injection path end to end
// and checks the reliability ledger shows up under soc/fault/...
func TestFaultLedgerPopulated(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)
	s := New(faultySoC(fault.SECDED))
	if s.Faults == nil {
		t.Fatal("no injector for a faulty config")
	}
	s.RunGeneration(jobs, gen, footprint)
	snap := s.Snapshot()

	if snap.Int("fault/sram/flipped_words") == 0 {
		t.Fatal("no SRAM flips over a full generation")
	}
	if snap.Int("fault/sram/detected_errors") == 0 {
		t.Fatal("SECDED detected nothing")
	}
	if snap.Int("fault/sram/corrected_words") == 0 {
		t.Fatal("SECDED corrected nothing")
	}
	if snap.Float("sram/ecc_overhead_pj") <= 0 {
		t.Fatal("no ECC code-bit energy charged")
	}
	if snap.Int("fault/noc/dropped_flits") == 0 {
		t.Fatal("no NoC drops over a full generation")
	}
	if snap.Int("fault/noc/retransmitted_flits") == 0 {
		t.Fatal("drops were never retransmitted")
	}
	if snap.Int("fault/eve/dead_pes") == 0 {
		t.Fatal("no dead PEs at 5% stuck-at over 256 PEs")
	}
	if snap.Int("fault/eve/redispatched_children") == 0 {
		t.Fatal("dead PEs but no re-dispatched children")
	}
	if snap.Float("fault/eve/imbalance") < 1 {
		t.Fatalf("imbalance %v < 1 with dead PEs", snap.Float("fault/eve/imbalance"))
	}
}

// TestFaultsCostTimeAndEnergy: recovery is not free — the faulty chip
// must run longer and hotter than the clean one, and the unprotected
// chip must log silent errors instead of corrections.
func TestFaultsCostTimeAndEnergy(t *testing.T) {
	jobs, gen, footprint := evolveWorkload(t, "cartpole", 30)

	cs := runChip(energy.DefaultSoC(), jobs, gen, footprint)
	ss := runChip(faultySoC(fault.SECDED), jobs, gen, footprint)
	us := runChip(faultySoC(fault.Unprotected), jobs, gen, footprint)

	if ss.Int("total_cycles") <= cs.Int("total_cycles") {
		t.Fatalf("SECDED chip not slower: %d vs clean %d", ss.Int("total_cycles"), cs.Int("total_cycles"))
	}
	if ss.Float("energy_pj") <= cs.Float("energy_pj") {
		t.Fatalf("SECDED chip not hotter: %v vs clean %v", ss.Float("energy_pj"), cs.Float("energy_pj"))
	}
	// SRAM protection costs are charged inside the buffer's counter
	// node (the chip's energy_pj prices EvE's SRAM traffic from logical
	// access counts alone), so the code-bit ordering is checked on
	// sram/energy_pj: unprotected < SECDED, clean < SECDED.
	if us.Float("sram/energy_pj") >= ss.Float("sram/energy_pj") {
		t.Fatalf("unprotected SRAM energy %v >= SECDED %v: code bits were free",
			us.Float("sram/energy_pj"), ss.Float("sram/energy_pj"))
	}
	if cs.Float("sram/energy_pj") >= ss.Float("sram/energy_pj") {
		t.Fatalf("clean SRAM energy %v >= SECDED %v: scrub/code bits were free",
			cs.Float("sram/energy_pj"), ss.Float("sram/energy_pj"))
	}
	if us.Int("fault/sram/silent_errors") == 0 {
		t.Fatal("unprotected chip logged no silent errors")
	}
	if us.Int("fault/sram/corrected_words") != 0 {
		t.Fatal("unprotected chip corrected words")
	}
}
