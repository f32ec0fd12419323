package neat

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/gene"
	"repro/internal/rng"
)

// Checkpointing: long evolutionary runs (the paper's MountainCar tail
// reached generation 160) need save/restore of the full algorithm
// state — genomes, species bookkeeping, id counters and the PRNG
// stream — not just the genome list.
//
// A population document is fixed-width little-endian binary, with each
// genome a gene.Genome binary record (gene/record.go):
//
//	magic          "GNSYPOP\x01"; the last byte is the format version
//	config         u32 length, then json.Marshal(Config)
//	counters       generation i64, nextGenomeId i64, nextSpeciesId i64,
//	               nextNodeId i32
//	genomes        u32 count, then one record per genome
//	bestEver       presence u8 (0 or 1), then a record if present
//	species        u32 count, then per species: id i64, the
//	               representative's record, bestFitness f64,
//	               lastImproved i64, created i64
//	PRNG stream    xorwow x, y, z, w, v, d u32; cached Gauss f64;
//	               hasGauss u8
//
// The config stays JSON: it is small, and encoding/json's field
// matching is what every other reader of a Config uses.

// magic opens every population document. A JSON checkpoint written by
// an earlier build starts with '{' and fails on its first byte.
const magic = "GNSYPOP\x01"

// Fixed sizes: a document without its config and records, and a
// species entry without its representative's record.
const (
	docFixed     = len(magic) + 4 + 3*8 + 4 + 4 + 1 + 4 + 6*4 + 8 + 1
	speciesFixed = 4 * 8
)

var le = binary.LittleEndian

// Save returns the population state as one binary document, including
// the live PRNG stream: a restored run continues bit-identically to the
// uninterrupted one, generation for generation. It sizes the document
// first and fills one buffer. A NaN or infinite fitness or attribute
// fails the save.
func (p *Population) Save() ([]byte, error) {
	cfg, err := json.Marshal(p.Config)
	if err != nil {
		return nil, err
	}
	size := docFixed + len(cfg)
	for _, g := range p.Genomes {
		size += g.RecordSize()
	}
	if p.BestEver != nil {
		size += p.BestEver.RecordSize()
	}
	for _, s := range p.Species {
		size += speciesFixed + s.Representative.RecordSize()
	}
	b := append(make([]byte, 0, size), magic...)
	b = le.AppendUint32(b, uint32(len(cfg)))
	b = append(b, cfg...)
	b = le.AppendUint64(b, uint64(p.Generation))
	b = le.AppendUint64(b, uint64(p.nextGenomeID))
	b = le.AppendUint64(b, uint64(p.nextSpeciesID))
	b = le.AppendUint32(b, uint32(p.ids.next))
	b = le.AppendUint32(b, uint32(len(p.Genomes)))
	for _, g := range p.Genomes {
		if b, err = g.AppendRecord(b); err != nil {
			return nil, err
		}
	}
	b = gene.AppendFlag(b, p.BestEver != nil)
	if p.BestEver != nil {
		if b, err = p.BestEver.AppendRecord(b); err != nil {
			return nil, err
		}
	}
	b = le.AppendUint32(b, uint32(len(p.Species)))
	for _, s := range p.Species {
		b = le.AppendUint64(b, uint64(s.ID))
		if b, err = s.Representative.AppendRecord(b); err == nil {
			b, err = gene.AppendFloat(b, s.BestFitness)
		}
		if err != nil {
			return nil, err
		}
		b = le.AppendUint64(b, uint64(s.LastImproved))
		b = le.AppendUint64(b, uint64(s.Created))
	}
	st := p.rnd.State()
	for _, w := range [...]uint32{st.X, st.Y, st.Z, st.W, st.V, st.D} {
		b = le.AppendUint32(b, w)
	}
	if b, err = gene.AppendFloat(b, st.Gauss); err != nil {
		return nil, err
	}
	return gene.AppendFlag(b, st.HasGauss), nil
}

// Restore rebuilds a population from a document Save wrote, continuing
// its PRNG stream. It reads the document in one bounds-checked pass:
// no count is trusted before the bytes it claims are there, every
// genome is validated, and a flag byte, node type, activation or
// aggregation out of range, a NaN or infinite float, an invalid
// config, a genome count other than the config's PopulationSize, and
// any data after the document are errors. It accepts only what Save
// writes, so whatever it accepts saves back to the identical bytes:
// it also rejects a config that is not json.Marshal's encoding, a
// node id counter below the config's floor and an all-zero PRNG state.
func Restore(data []byte) (p *Population, err error) {
	if p, err = restore(data); err != nil {
		return nil, fmt.Errorf("neat: restore: %w", err)
	}
	return p, nil
}

func restore(data []byte) (*Population, error) {
	d := gene.NewDecoder(data)
	if string(d.Bytes(len(magic))) != magic {
		return nil, errors.New("not a population document")
	}
	// A document cut short before its config's end leaves raw nil,
	// which fails here as JSON input that ends unexpectedly.
	raw := d.Bytes(d.Count(1))
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if canon, err := json.Marshal(cfg); err != nil || !bytes.Equal(canon, raw) {
		return nil, errors.New("config is not in json.Marshal's encoding")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := newPopulation(cfg, 0)
	p.Generation = d.Int()
	p.nextGenomeID = d.Int64()
	p.nextSpeciesID = d.Int()
	nodeID := int32(d.Uint32())
	p.Genomes = make([]*gene.Genome, d.Count(gene.MinRecordSize))
	for i := range p.Genomes {
		p.Genomes[i] = d.Genome()
	}
	if d.Flag() {
		p.BestEver = d.Genome()
	}
	// Membership is rebuilt by the next speciation.
	p.Species = make([]*Species, d.Count(speciesFixed+gene.MinRecordSize))
	for i := range p.Species {
		p.Species[i] = &Species{ID: d.Int(), Representative: d.Genome(),
			BestFitness: d.Float(), LastImproved: d.Int(), Created: d.Int()}
	}
	var st rng.State
	st.X, st.Y, st.Z, st.W, st.V, st.D = d.Uint32(), d.Uint32(), d.Uint32(), d.Uint32(), d.Uint32(), d.Uint32()
	st.Gauss, st.HasGauss = d.Float(), d.Flag()
	if err := d.End(); err != nil {
		return nil, err
	}
	// Save always writes exactly PopulationSize genomes; a mismatch
	// means a corrupt or hand-made document. The check also bounds the
	// work a hostile PopulationSize can demand of later epochs to the
	// size of the document itself.
	switch {
	case len(p.Genomes) != cfg.PopulationSize:
		return nil, fmt.Errorf("%d genomes for population size %d", len(p.Genomes), cfg.PopulationSize)
	case nodeID < p.ids.next:
		return nil, fmt.Errorf("node id counter %d below the config's floor %d", nodeID, p.ids.next)
	case st.X|st.Y|st.Z|st.W|st.V == 0:
		return nil, errors.New("all-zero PRNG state")
	}
	p.ids.next = nodeID
	p.rnd.SetState(st)
	return p, nil
}
