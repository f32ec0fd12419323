package sram

import (
	"sync"
	"testing"
	"testing/quick"
)

// counts reads the buffer's access, write and spill counters.
func counts(b *Buffer) (reads, writes, spills int64) {
	rep := b.Counters().Snapshot()
	return rep.Int("reads"), rep.Int("writes"), rep.Int("spill_words")
}

func TestCapacityMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.CapacityBytes() != 1536*1024 {
		t.Fatalf("capacity %d bytes, want 1.5 MB", c.CapacityBytes())
	}
}

func TestAccessCounting(t *testing.T) {
	b := New(DefaultConfig())
	b.Read(100)
	b.Write(40)
	if r, w, _ := counts(b); r != 100 || w != 40 {
		t.Fatalf("counts %d/%d", r, w)
	}
	b.Reset()
	if r, w, _ := counts(b); r != 0 || w != 0 || b.EnergyPJ() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestBandwidthCycles(t *testing.T) {
	b := New(Config{Banks: 48, Depth: 4096, AccessPJ: 50, PortsEach: 1})
	// 48 words in one cycle.
	if c := b.Read(48); c != 1 {
		t.Fatalf("48 reads took %d cycles", c)
	}
	// 49 words need two.
	if c := b.Read(49); c != 2 {
		t.Fatalf("49 reads took %d cycles", c)
	}
	if c := b.Read(0); c != 0 {
		t.Fatalf("0 reads took %d cycles", c)
	}
}

func TestEnergyScalesWithAccesses(t *testing.T) {
	b := New(DefaultConfig())
	b.Read(1000)
	e1 := b.EnergyPJ()
	b.Read(1000)
	if e2 := b.EnergyPJ(); e2 != 2*e1 {
		t.Fatalf("energy not linear: %v then %v", e1, e2)
	}
	if e1 != 1000*50 {
		t.Fatalf("energy %v, want 50 pJ/access", e1)
	}
}

func TestSpillAccounting(t *testing.T) {
	b := New(DefaultConfig())
	// Fits on-chip: no spill.
	b.SetResidency(b.Config().CapacityWords())
	if !b.Resident() {
		t.Fatal("exact fit reported as spilled")
	}
	b.Read(1000)
	if _, _, s := counts(b); s != 0 {
		t.Fatalf("resident working set spilled %d", s)
	}
	// Twice the capacity: half the accesses go off-chip.
	b.Reset()
	b.SetResidency(2 * b.Config().CapacityWords())
	if b.Resident() {
		t.Fatal("oversized set reported resident")
	}
	b.Read(1000)
	if _, _, s := counts(b); s != 500 {
		t.Fatalf("spilled %d of 1000, want 500", s)
	}
	// Off-chip accesses are 100× the energy.
	wantPJ := float64(500)*50 + float64(500)*50*100
	if b.EnergyPJ() != wantPJ {
		t.Fatalf("spill energy %v, want %v", b.EnergyPJ(), wantPJ)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-bank geometry accepted")
		}
	}()
	New(Config{Banks: 0, Depth: 10})
}

func TestSpillPartialResidency(t *testing.T) {
	b := New(DefaultConfig())
	// 4/3 of capacity resident: a quarter of every access spills.
	b.SetResidency(4 * b.Config().CapacityWords() / 3)
	b.Read(1200)
	if _, _, got := counts(b); got < 295 || got > 305 {
		t.Fatalf("spilled %d of 1200 at 25%% overflow, want ~300", got)
	}
	// Residency survives Reset; only the activity tally clears.
	b.Reset()
	if _, _, s := counts(b); s != 0 {
		t.Fatal("reset kept spill tally")
	}
	b.Read(1200)
	if _, _, s := counts(b); s == 0 {
		t.Fatal("reset dropped the declared residency")
	}
}

func TestConcurrentAccessSafe(t *testing.T) {
	// The documented contract: Read, Write and EnergyPJ are safe for
	// concurrent use. Run under -race and check nothing is lost.
	b := New(DefaultConfig())
	const workers, each = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Read(3)
				b.Write(2)
				_ = b.EnergyPJ()
			}
		}()
	}
	wg.Wait()
	if r, w, _ := counts(b); r != workers*each*3 || w != workers*each*2 {
		t.Fatalf("lost updates: reads %d writes %d", r, w)
	}
	if want := float64(workers*each*5) * b.Config().AccessPJ; b.EnergyPJ() != want {
		t.Fatalf("energy %v, want %v", b.EnergyPJ(), want)
	}
}

// TestCounterNodeMirrorsGetters checks the buffer's counter node
// against the accesses charged and against the EnergyPJ getter.
func TestCounterNodeMirrorsGetters(t *testing.T) {
	b := New(DefaultConfig())
	b.SetResidency(2 * b.Config().CapacityWords())
	b.Read(100)
	b.Write(60)
	rep := b.Counters().Snapshot()
	if rep.Name != "sram" {
		t.Fatalf("component name %q", rep.Name)
	}
	if rep.Int("reads") != 100 || rep.Int("writes") != 60 {
		t.Fatalf("registry reads/writes %d/%d, want 100/60", rep.Int("reads"), rep.Int("writes"))
	}
	// Half the working set is off-chip, so half of each access spills.
	if rep.Int("spill_words") != 80 {
		t.Fatalf("registry spill %d, want 80", rep.Int("spill_words"))
	}
	if rep.Float("energy_pj") != b.EnergyPJ() {
		t.Fatalf("registry energy %v vs getter %v", rep.Float("energy_pj"), b.EnergyPJ())
	}
	if rep.Int("capacity_words") != int64(b.Config().CapacityWords()) {
		t.Fatalf("capacity %d", rep.Int("capacity_words"))
	}
}

// Property: cycles returned are always ceil(n / bandwidth).
func TestQuickCycleLaw(t *testing.T) {
	f := func(n uint16, banks, ports uint8) bool {
		bk := int(banks%64) + 1
		pt := int(ports%4) + 1
		b := New(Config{Banks: bk, Depth: 128, AccessPJ: 1, PortsEach: pt})
		words := int64(n)
		got := b.Read(words)
		bw := int64(bk * pt)
		want := (words + bw - 1) / bw
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
