package neat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
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
	q, err := Restore(buf.Bytes(), 99)
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
	q, err := Restore(buf.Bytes(), 42)
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
	q, err := Restore(first.Bytes(), 12345)
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
	q, err := Restore(buf.Bytes(), 0xDEAD)
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
		if _, err := Restore([]byte(doc), 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// saved returns p's checkpoint document.
func saved(tb testing.TB, p *Population) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// reassemble rewrites a checkpoint's envelope with its keys in order,
// one per line, dropping the keys order leaves out; set replaces
// values by key.
func reassemble(t *testing.T, doc []byte, order []string, set map[string]string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatal(err)
	}
	for k, v := range set {
		m[k] = json.RawMessage(v)
	}
	b := []byte("{")
	for _, k := range order {
		if len(b) > 1 {
			b = append(b, ",\n"...)
		}
		b = fmt.Appendf(b, "%q : %s", k, m[k])
	}
	return append(b, "}"...)
}

// TestRestoreMatchesReference restores checkpoints that are not Save's
// exact bytes, and Save's bytes of a RAM-shaped population, through
// both decoders: both accept, and the two populations save to the same
// bytes.
func TestRestoreMatchesReference(t *testing.T) {
	doc := saved(t, evolvedPopulation(t))
	all := checkpointKeys[:]
	reversed := slices.Clone(all)
	slices.Reverse(reversed)
	var indented bytes.Buffer
	if err := json.Indent(&indented, doc, "\t", "  "); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{
		"as saved":                  doc,
		"RAM-shaped (128x18)":       saved(t, benchPopulation(t, 128, 18, 4, 2)),
		"keys reordered":            reassemble(t, doc, reversed, nil),
		"whitespace between tokens": append(append([]byte(" \r\n"), indented.Bytes()...), " \t"...),
		"stream-less": reassemble(t, doc, []string{"config", "generation", "nextGenomeId", "nextSpeciesId",
			"nextNodeId", "genomes"}, nil),
		"bestEver null": reassemble(t, doc, all, map[string]string{"bestEver": "null"}),
	} {
		got, err := Restore(in, 5)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := referenceRestore(in, 5)
		if err != nil {
			t.Errorf("%s: reference: %v", name, err)
			continue
		}
		if !bytes.Equal(saved(t, got), saved(t, want)) {
			t.Errorf("%s: restored populations save differently", name)
		}
	}
}

// strictCases derives from a saved checkpoint the inputs the
// encoding/json reference accepts and Restore rejects. Each edit is
// made at the first occurrence of a key: for generation the
// envelope's, for bestFitness and lastImproved the first species'.
func strictCases(doc []byte) map[string][]byte {
	at := func(key string) (int, int) {
		i := bytes.Index(doc, []byte(`"`+key+`":`))
		return i, i + len(key) + 3
	}
	insert := func(key, s string) []byte {
		i, _ := at(key)
		return slices.Concat(doc[:i], []byte(s), doc[i:])
	}
	rename := func(key, to string) []byte {
		i, j := at(key)
		return slices.Concat(doc[:i], []byte(`"`+to+`":`), doc[j:])
	}
	set := func(key, v string) []byte {
		_, j := at(key)
		return slices.Concat(doc[:j], []byte(v), doc[j+bytes.IndexAny(doc[j:], ",}"):])
	}
	return map[string][]byte{
		"data after the document": slices.Concat(doc, []byte("garbage")),
		"two checkpoints":         slices.Concat(doc, doc),
		"key in another case":     rename("generation", "Generation"),
		"unknown key":             insert("generation", `"extra":1,`),
		"escaped key":             rename("generation", `gener\u0061tion`),
		"null number":             set("generation", "null"),
		"repeated key":            insert("generation", `"generation":1,`),
		"unknown species key":     insert("bestFitness", `"members":[],`),
		"null species number":     set("lastImproved", "null"),
	}
}

// TestRestoreStricterThanReference lists the inputs the encoding/json
// reference accepts that Restore rejects. Save writes none of them.
func TestRestoreStricterThanReference(t *testing.T) {
	doc := saved(t, evolvedPopulation(t))
	for name, in := range strictCases(doc) {
		if _, err := referenceRestore(in, 1); err != nil {
			t.Errorf("%s: the reference rejects it too (%v); not a stricter case", name, err)
		}
		if _, err := Restore(in, 1); err == nil {
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
	q, err := Restore(buf.Bytes(), 1)
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
			if _, err := Restore(doc.Bytes(), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
