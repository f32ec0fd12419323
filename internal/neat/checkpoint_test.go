package neat

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

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

// referenceSave is Save's encoding/json implementation: the document
// the hand-written envelope must reproduce byte for byte.
func referenceSave(p *Population, w io.Writer) error {
	st := p.rnd.State()
	cp := checkpoint{
		Config:        p.Config,
		Generation:    p.Generation,
		NextGenomeID:  p.nextGenomeID,
		NextSpeciesID: p.nextSpeciesID,
		NextNodeID:    p.ids.next,
		Genomes:       p.Genomes,
		BestEver:      p.BestEver,
		RNG:           &st,
	}
	for _, s := range p.Species {
		cp.Species = append(cp.Species, speciesCheckpoint{
			ID:             s.ID,
			Representative: s.Representative,
			BestFitness:    s.BestFitness,
			LastImproved:   s.LastImproved,
			Created:        s.Created,
		})
	}
	return json.NewEncoder(w).Encode(cp)
}

func TestSaveMatchesEncodingJSON(t *testing.T) {
	fresh, err := NewPopulation(DefaultConfig(2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Big enough for Save to flush several chunks mid-document.
	cfg := DefaultConfig(24, 4)
	cfg.PopulationSize = 60
	big, err := NewPopulation(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for _, g := range big.Genomes {
		g.Fitness = r.NormFloat64()
	}
	if _, err := big.Epoch(); err != nil {
		t.Fatal(err)
	}
	big.rnd.NormFloat64() // leave a cached Gauss draw in the PRNG state
	for name, p := range map[string]*Population{"fresh": fresh, "evolved": evolvedPopulation(t), "big": big} {
		var got, want bytes.Buffer
		if err := p.Save(&got); err != nil {
			t.Fatal(err)
		}
		if err := referenceSave(p, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: Save differs from encoding/json (%d vs %d bytes)", name, got.Len(), want.Len())
		}
		if name == "big" && got.Len() < 3*saveChunk {
			t.Fatalf("big population is only %d bytes", got.Len())
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	p := evolvedPopulation(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Restore(&buf, 99)
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
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Restore(&buf, 42)
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
	var first bytes.Buffer
	if err := p.Save(&first); err != nil {
		t.Fatal(err)
	}
	q, err := Restore(bytes.NewReader(first.Bytes()), 12345)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := q.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("save/restore/save not byte-identical:\n%s\nvs\n%s",
			first.Bytes(), second.Bytes())
	}
}

// TestRestoreContinuesBitIdentically: the checkpoint carries the live
// PRNG stream, so a restored population evolves exactly like the
// uninterrupted one under identical fitness assignments.
func TestRestoreContinuesBitIdentically(t *testing.T) {
	p := evolvedPopulation(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A deliberately different restore seed: the checkpointed stream
	// must win over it.
	q, err := Restore(&buf, 0xDEAD)
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
	var a, b bytes.Buffer
	if err := p.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := q.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("restored population diverged from the uninterrupted one")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":   "{",
		"empty":      `{"config":{"PopulationSize":10,"NumInputs":2,"NumOutputs":1,"InitialConnection":"full","CompatThreshold":3,"SurvivalThreshold":0.2,"TournamentSize":3},"genomes":[]}`,
		"bad config": `{"config":{"PopulationSize":0},"genomes":[{"id":1,"nodes":[],"conns":[]}]}`,
		"null genome": `{"config":{"PopulationSize":1,"NumInputs":2,"NumOutputs":1,"InitialConnection":"full",` +
			`"CompatThreshold":3,"SurvivalThreshold":0.2,"TournamentSize":3},"genomes":[null]}`,
		"null representative": `{"config":{"PopulationSize":1,"NumInputs":2,"NumOutputs":1,"InitialConnection":"full",` +
			`"CompatThreshold":3,"SurvivalThreshold":0.2,"TournamentSize":3},"genomes":[{"id":1}],` +
			`"species":[{"id":1,"representative":null}]}`,
	}
	for name, doc := range cases {
		if _, err := Restore(strings.NewReader(doc), 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRestorePreservesNodeIDCounter(t *testing.T) {
	p := evolvedPopulation(t)
	before := p.ids.next
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Restore(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.ids.next < before {
		t.Fatalf("node id counter regressed: %d < %d — future splits would collide",
			q.ids.next, before)
	}
}

// BenchmarkCheckpoint measures writing and reading one RAM-scale
// checkpoint: pop 50 genomes of 128×18 inputs×outputs (about 8 MB of
// JSON), the population an atari job commits to the store.
func BenchmarkCheckpoint(b *testing.B) {
	p := benchPopulation(b, 128, 18, 50, 2)
	var doc bytes.Buffer
	if err := p.Save(&doc); err != nil {
		b.Fatal(err)
	}
	b.Run("Save", func(b *testing.B) {
		b.SetBytes(int64(doc.Len()))
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := p.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Restore", func(b *testing.B) {
		b.SetBytes(int64(doc.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Restore(bytes.NewReader(doc.Bytes()), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
