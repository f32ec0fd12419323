package hwsim

import (
	"bytes"
	"sync"
	"testing"
)

func TestCountersTreeAndValues(t *testing.T) {
	root := New("soc")
	root.AddInt("total_cycles", 100)
	root.AddInt("total_cycles", 50)
	root.AddFloat("energy_pj", 1.5)
	pe := root.Child("eve").Child("pe")
	pe.AddInt("gene_ops", 7)

	if got := root.IntValue("total_cycles"); got != 150 {
		t.Fatalf("total_cycles = %d, want 150", got)
	}
	if got := root.FloatValue("energy_pj"); got != 1.5 {
		t.Fatalf("energy_pj = %v", got)
	}
	rep := root.Snapshot()
	if got := rep.Int("eve/pe/gene_ops"); got != 7 {
		t.Fatalf("path read = %d, want 7", got)
	}
	if got := rep.Int("eve/pe/missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
	if _, ok := rep.Value("nope/gene_ops"); ok {
		t.Fatal("missing node should not resolve")
	}
}

func TestAdoptMountsComponentTree(t *testing.T) {
	soc := New("soc")
	eve := New("eve")
	eve.AddInt("waves", 3)
	soc.Adopt(eve)
	if got := soc.Snapshot().Int("eve/waves"); got != 3 {
		t.Fatalf("adopted read = %d, want 3", got)
	}
	// The adopted node stays live: later charges show up in the parent.
	eve.AddInt("waves", 2)
	if got := soc.Snapshot().Int("eve/waves"); got != 5 {
		t.Fatalf("live adopted read = %d, want 5", got)
	}
}

func TestResetZeroesRecursivelyAndKeepsNames(t *testing.T) {
	root := New("soc")
	root.AddInt("cycles", 9)
	root.Child("sram").AddFloat("energy_pj", 4)
	root.Reset()
	rep := root.Snapshot()
	if rep.Int("cycles") != 0 || rep.Float("sram/energy_pj") != 0 {
		t.Fatalf("reset left values: %+v", rep)
	}
	// Names survive reset so the schema is stable across generations.
	if _, ok := rep.Value("sram/energy_pj"); !ok {
		t.Fatal("counter name lost on reset")
	}
}

func TestSnapshotHookDerivesMetrics(t *testing.T) {
	c := New("eve")
	c.OnSnapshot(func(c *Counters) {
		if sc := c.IntValue("stream_cycles"); sc > 0 {
			c.SetFloat("reads_per_cycle", float64(c.IntValue("sram_reads"))/float64(sc))
		}
	})
	c.AddInt("sram_reads", 90)
	c.AddInt("stream_cycles", 30)
	if got := c.Snapshot().Float("reads_per_cycle"); got != 3 {
		t.Fatalf("derived = %v, want 3", got)
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func() []byte {
		c := New("soc")
		c.Child("eve").AddInt("waves", 1)
		c.Child("adam").AddFloat("mac_energy_pj", 2)
		c.AddInt("total_cycles", 3)
		b, err := c.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("snapshot JSON not deterministic")
	}
}

func TestConcurrentCharging(t *testing.T) {
	root := New("soc")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				root.AddInt("ops", 1)
				root.AddFloat("energy_pj", 0.5)
				root.Child("eve").AddInt("waves", 1)
			}
		}()
	}
	wg.Wait()
	rep := root.Snapshot()
	if got := rep.Int("ops"); got != workers*per {
		t.Fatalf("ops = %d, want %d", got, workers*per)
	}
	if got := rep.Float("energy_pj"); got != workers*per*0.5 {
		t.Fatalf("energy = %v", got)
	}
	if got := rep.Int("eve/waves"); got != workers*per {
		t.Fatalf("child ops = %d", got)
	}
}

func TestLogSortsAndExtractsSeries(t *testing.T) {
	l := &Log{}
	mk := func(run, gen int, v int64) Record {
		c := New("evolve")
		c.AddInt("ops", v)
		return Record{Workload: "cartpole", Run: run, Generation: gen, Report: c.Snapshot()}
	}
	l.Record(mk(1, 1, 4))
	l.Record(mk(0, 1, 2))
	l.Record(mk(1, 0, 3))
	l.Record(mk(0, 0, 1))
	got := l.Series("ops")
	want := []float64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("series = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
}

func TestTaggedStampsRecords(t *testing.T) {
	l := &Log{}
	s := Tagged{Sink: l, Workload: "mario", Run: 7}
	s.Record(Record{Generation: 3})
	recs := l.Records()
	if recs[0].Workload != "mario" || recs[0].Run != 7 || recs[0].Generation != 3 {
		t.Fatalf("record = %+v", recs[0])
	}
}
