package neat

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/gene"
	"repro/internal/rng"
)

// evolvedPopulation builds a population with some history.
func evolvedPopulation(t *testing.T) *Population {
	t.Helper()
	cfg := DefaultConfig(3, 2)
	cfg.PopulationSize = 30
	p, err := NewPopulation(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for gen := 0; gen < 4; gen++ {
		for _, g := range p.Genomes {
			g.Fitness = r.Float64() * 10
		}
		if _, err := p.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestCheckpointRoundTrip(t *testing.T) {
	p := evolvedPopulation(t)
	q, err := Restore(saved(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if q.Generation != p.Generation {
		t.Fatalf("generation %d vs %d", q.Generation, p.Generation)
	}
	if len(q.Genomes) != len(p.Genomes) {
		t.Fatalf("genomes %d vs %d", len(q.Genomes), len(p.Genomes))
	}
	if q.TotalGenes() != p.TotalGenes() {
		t.Fatalf("genes %d vs %d", q.TotalGenes(), p.TotalGenes())
	}
	if len(q.Species) != len(p.Species) {
		t.Fatalf("species %d vs %d", len(q.Species), len(p.Species))
	}
	if q.BestEver == nil || q.BestEver.Fitness != p.BestEver.Fitness {
		t.Fatal("BestEver lost")
	}
}

func TestRestoredPopulationEvolves(t *testing.T) {
	p := evolvedPopulation(t)
	q, err := Restore(saved(t, p))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	for gen := 0; gen < 3; gen++ {
		for _, g := range q.Genomes {
			g.Fitness = r.Float64()
		}
		if _, err := q.Epoch(); err != nil {
			t.Fatalf("restored population failed to evolve: %v", err)
		}
	}
	// Fresh genome ids must not collide with checkpointed ones.
	seen := map[int64]bool{}
	for _, g := range q.Genomes {
		if seen[g.ID] {
			t.Fatalf("duplicate genome id %d after restore", g.ID)
		}
		seen[g.ID] = true
	}
	for _, g := range q.Genomes {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveRestoreSaveByteIdentical: a checkpoint is a fixed point —
// restoring and immediately re-saving loses nothing.
func TestSaveRestoreSaveByteIdentical(t *testing.T) {
	p := evolvedPopulation(t)
	first := saved(t, p)
	q, err := Restore(first)
	if err != nil {
		t.Fatal(err)
	}
	if second := saved(t, q); !bytes.Equal(first, second) {
		t.Fatalf("save/restore/save not byte-identical: %d vs %d bytes", len(first), len(second))
	}
}

// TestRestoreContinuesBitIdentically: the checkpoint carries the live
// PRNG stream, so a restored population evolves exactly like the
// uninterrupted one under identical fitness assignments.
func TestRestoreContinuesBitIdentically(t *testing.T) {
	p := evolvedPopulation(t)
	q, err := Restore(saved(t, p))
	if err != nil {
		t.Fatal(err)
	}
	score := func(pop *Population) {
		for _, g := range pop.Genomes {
			// Deterministic per-genome fitness so both populations see
			// identical selection pressure.
			g.Fitness = float64(g.ID%17) + float64(g.NumGenes())/100
		}
	}
	for gen := 0; gen < 3; gen++ {
		score(p)
		score(q)
		if _, err := p.Epoch(); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saved(t, p), saved(t, q)) {
		t.Fatal("restored population diverged from the uninterrupted one")
	}
}

// saved returns p's checkpoint document.
func saved(tb testing.TB, p *Population) []byte {
	tb.Helper()
	doc, err := p.Save()
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// smallPopulation is a small evolved population whose document the
// rejection cases edit: pop 8 of 2×1 inputs×outputs after two epochs.
func smallPopulation(tb testing.TB) *Population {
	tb.Helper()
	cfg := DefaultConfig(2, 1)
	cfg.PopulationSize = 8
	p, err := NewPopulation(cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for gen := 0; gen < 2; gen++ {
		for i, g := range p.Genomes {
			g.Fitness = float64(i)
		}
		if _, err := p.Epoch(); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// jsonCheckpoint is a whole checkpoint of the JSON format earlier
// builds wrote: a fresh pop-1 population of 1×1 inputs×outputs.
const jsonCheckpoint = `{"config":{"PopulationSize":1,"NumInputs":1,"NumOutputs":1,"InitialConnection":"full",` +
	`"CompatThreshold":3,"CompatDisjointCoeff":1,"CompatWeightCoeff":0.5,"MaxStagnation":15,"SpeciesElitism":2,` +
	`"Elitism":2,"SurvivalThreshold":0.2,"CrossoverRate":0.75,"MinSpeciesSize":2,"TournamentSize":3,` +
	`"WeightMutateRate":0.8,"WeightReplaceRate":0.1,"WeightPerturbPower":0.5,"WeightInitPower":1,` +
	`"BiasMutateRate":0.7,"BiasPerturbPower":0.5,"ResponseMutateRate":0.1,"ResponsePerturbPower":0.1,` +
	`"ActivationMutateRate":0.05,"AggregationMutateRate":0.03,"EnableMutateRate":0.05,"AddNodeProb":0.1,` +
	`"AddConnProb":0.3,"DeleteNodeProb":0.05,"DeleteConnProb":0.15,"MaxDeletedNodes":1,"CrossoverBias":0.5,` +
	`"LocalNodeIDs":false,"FeedForwardOnly":true},"generation":0,"nextGenomeId":1,"nextSpeciesId":0,` +
	`"nextNodeId":2,"genomes":[{"id":0,"fitness":0,"nodes":[{"id":0,"type":"input","bias":0,"response":1,` +
	`"activation":"sigmoid","aggregation":"sum"},{"id":1,"type":"output","bias":0,"response":1,` +
	`"activation":"sigmoid","aggregation":"sum"}],"conns":[{"src":0,"dst":1,"weight":0,"enabled":true}]}],` +
	`"rng":{"x":3195035748,"y":2276452962,"z":1152747958,"w":2536595552,"v":794331041,"d":2156817406}}` + "\n"

// rejectCases derives from p's document the inputs Restore must
// reject: edits at the offsets of the layout in checkpoint.go, and
// invalid populations, which Save writes as they are.
func rejectCases(tb testing.TB, p *Population) map[string][]byte {
	tb.Helper()
	doc := saved(tb, p)
	cfgLen := int(le.Uint32(doc[len(magic):]))
	counters := len(magic) + 4 + cfgLen
	count := counters + 3*8 + 4 // the genome count
	node := count + 4 + 8 + 8 + 4
	conn := node + 23*len(p.Genomes[0].Nodes) + 4
	best := count + 4
	for _, g := range p.Genomes {
		best += g.RecordSize()
	}
	stream := len(doc) - (6*4 + 8 + 1)
	edit := func(off int, b ...byte) []byte {
		out := slices.Clone(doc)
		copy(out[off:], b)
		return out
	}
	config := func(cfg string) []byte {
		return slices.Concat(doc[:len(magic)], le.AppendUint32(nil, uint32(len(cfg))), []byte(cfg), doc[counters:])
	}
	cases := map[string][]byte{
		"JSON checkpoint":                 []byte(jsonCheckpoint),
		"count overruns the data":         edit(count, 0xff, 0xff, 0xff, 0x7f),
		"bestEver flag 2":                 edit(best, 2),
		"enabled flag 2":                  edit(conn+16, 2),
		"node type out of range":          edit(node+4, byte(gene.Output)+1),
		"activation out of range":         edit(node+5, byte(gene.NumActivations)),
		"aggregation out of range":        edit(node+6, byte(gene.NumAggregations)),
		"NaN weight":                      edit(conn+8, le.AppendUint64(nil, math.Float64bits(math.NaN()))...),
		"infinite bias":                   edit(node+7, le.AppendUint64(nil, math.Float64bits(math.Inf(1)))...),
		"trailing byte":                   append(slices.Clone(doc), 0),
		"all-zero PRNG state":             edit(stream, make([]byte, 5*4)...),
		"node id counter below its floor": edit(counters+3*8, 0, 0, 0, 0),
		"config with whitespace":          config(" " + string(doc[len(magic)+4:counters])),
		"config key in another case": config(strings.Replace(string(doc[len(magic)+4:counters]),
			`"PopulationSize"`, `"populationSize"`, 1)),
	}
	for name, invalidate := range map[string]func(*Population){
		"empty population": func(q *Population) { q.Genomes = nil },
		"bad config":       func(q *Population) { q.Config.SurvivalThreshold = 2 },
		"size mismatch":    func(q *Population) { q.Genomes = q.Genomes[1:] },
	} {
		q, err := Restore(doc)
		if err != nil {
			tb.Fatal(err)
		}
		invalidate(q)
		cases[name] = saved(tb, q)
	}
	return cases
}

func TestRestoreRejectsGarbage(t *testing.T) {
	p := smallPopulation(t)
	for name, in := range rejectCases(t, p) {
		if _, err := Restore(in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	doc := saved(t, p)
	for n := range doc {
		if _, err := Restore(doc[:n]); err == nil {
			t.Fatalf("accepted the document truncated to %d of %d bytes", n, len(doc))
		}
	}
}

// TestCheckpointAllocs: Save sizes its buffer exactly and allocates
// only it and the config's JSON, whatever the population's size, and
// Restore a constant plus three per genome (the genome and its two gene
// lists).
func TestCheckpointAllocs(t *testing.T) {
	p := benchPopulation(t, 128, 18, 50, 2)
	doc := saved(t, p)
	if cap(doc) != len(doc) {
		t.Errorf("Save sized a %d-byte buffer for a %d-byte document", cap(doc), len(doc))
	}
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	if n := testing.AllocsPerRun(5, func() { saved(t, p) }); n > 4 {
		t.Errorf("Save: %v allocs", n)
	}
	genomes := len(p.Genomes) + len(p.Species) + 1
	if n := testing.AllocsPerRun(5, func() { Restore(doc) }); n > float64(3*genomes+40) {
		t.Errorf("Restore: %v allocs for %d genomes", n, genomes)
	}
}

func TestRestorePreservesNodeIDCounter(t *testing.T) {
	p := evolvedPopulation(t)
	before := p.ids.next
	q, err := Restore(saved(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if q.ids.next < before {
		t.Fatalf("node id counter regressed: %d < %d — future splits would collide",
			q.ids.next, before)
	}
}

// BenchmarkCheckpoint measures writing and reading one RAM-scale
// checkpoint: pop 50 genomes of 128×18 inputs×outputs (about 2.2 MB),
// the population an atari job commits to the store.
func BenchmarkCheckpoint(b *testing.B) {
	p := benchPopulation(b, 128, 18, 50, 2)
	doc := saved(b, p)
	b.Run("Save", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Save(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Restore", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Restore(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
