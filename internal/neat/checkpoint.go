package neat

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/gene"
	"repro/internal/rng"
)

// Checkpointing: long evolutionary runs (the paper's MountainCar tail
// reached generation 160) need save/restore of the full algorithm
// state — genomes, species bookkeeping, id counters — not just the
// genome list.

// Save writes the population state as JSON, including the live PRNG
// stream: a restored run continues bit-identically to the
// uninterrupted one, generation for generation.
//
// The document is the checkpoint struct exactly as encoding/json
// encodes it, written by hand: the envelope's few scalars in order,
// every genome through gene.AppendJSON, and the buffer flushed to w
// each time it passes saveChunk bytes, so no second copy of a
// multi-megabyte population is ever held. On an error w may hold a
// partial document.
func (p *Population) Save(w io.Writer) error {
	cfg, err := json.Marshal(p.Config)
	if err != nil {
		return err
	}
	st, err := json.Marshal(p.rnd.State())
	if err != nil {
		return err
	}
	b := append(make([]byte, 0, saveChunk), `{"config":`...)
	b = append(b, cfg...)
	b = appendIntField(b, "generation", int64(p.Generation))
	b = appendIntField(b, "nextGenomeId", p.nextGenomeID)
	b = appendIntField(b, "nextSpeciesId", int64(p.nextSpeciesID))
	b = appendIntField(b, "nextNodeId", int64(p.ids.next))
	b = append(b, `,"genomes":`...)
	if p.Genomes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, g := range p.Genomes {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = writeGenome(w, b, g); err != nil {
				return err
			}
		}
		b = append(b, ']')
	}
	if p.BestEver != nil {
		b = append(b, `,"bestEver":`...)
		if b, err = writeGenome(w, b, p.BestEver); err != nil {
			return err
		}
	}
	for i, s := range p.Species {
		if i == 0 {
			b = append(b, `,"species":[`...)
		} else {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(s.ID), 10)
		b = append(b, `,"representative":`...)
		if b, err = writeGenome(w, b, s.Representative); err != nil {
			return err
		}
		b = append(b, `,"bestFitness":`...)
		if b, err = gene.AppendJSONFloat(b, s.BestFitness); err != nil {
			return err
		}
		b = appendIntField(b, "lastImproved", int64(s.LastImproved))
		b = appendIntField(b, "created", int64(s.Created))
		b = append(b, '}')
	}
	if len(p.Species) > 0 {
		b = append(b, ']')
	}
	b = append(b, `,"rng":`...)
	b = append(b, st...)
	b = append(b, "}\n"...)
	_, err = w.Write(b)
	return err
}

// saveChunk is the size at which Save hands its buffer to the writer.
const saveChunk = 64 << 10

// appendIntField appends `,"name":v`.
func appendIntField(b []byte, name string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

// writeGenome appends g's JSON, null for a nil genome, and writes the
// buffer to w once it holds saveChunk bytes, returning it emptied.
func writeGenome(w io.Writer, b []byte, g *gene.Genome) ([]byte, error) {
	if g == nil {
		b = append(b, "null"...)
	} else {
		var err error
		if b, err = g.AppendJSON(b); err != nil {
			return b, err
		}
	}
	if len(b) < saveChunk {
		return b, nil
	}
	_, err := w.Write(b)
	return b[:0], err
}

// checkpointKeys and speciesKeys are the keys of the checkpoint
// envelope and of one species entry, in the order Save writes them.
var (
	checkpointKeys = [...]string{"config", "generation", "nextGenomeId", "nextSpeciesId",
		"nextNodeId", "genomes", "bestEver", "species", "rng"}
	speciesKeys = [...]string{"id", "representative", "bestFitness", "lastImproved", "created"}
)

// Restore reads a checkpoint and resumes it. When the checkpoint
// carries a PRNG state (every checkpoint this version writes), the
// stream continues bit-identically and restoreSeed is only the
// fallback for older, stream-less checkpoints.
//
// It reads the document in one pass: the envelope through a
// gene.Reader, each genome where it lies with the genome decoder (and
// its validation), and only the small config and rng objects through
// encoding/json, over their own bytes. Keys may come in any order and
// an absent one reads as zero, but the envelope is as strict as the
// genome decoder: an unknown, repeated or escaped key, null in place
// of a number and any data after the document are errors.
func Restore(data []byte, restoreSeed uint64) (*Population, error) {
	p, err := restore(data, restoreSeed)
	if err != nil {
		return nil, fmt.Errorf("neat: restore: %w", err)
	}
	return p, nil
}

func restore(data []byte, restoreSeed uint64) (*Population, error) {
	var (
		cfg                                     Config
		st                                      *rng.State
		generation, genomeID, speciesID, nodeID int64
		genomes                                 []*gene.Genome
		bestEver                                *gene.Genome
		species                                 []*Species
	)
	r := gene.NewReader(data)
	err := r.Object(checkpointKeys[:], func(k int) (err error) {
		switch checkpointKeys[k] {
		case "config":
			return decodeValue(r, &cfg)
		case "generation":
			generation, err = r.Int(strconv.IntSize)
		case "nextGenomeId":
			genomeID, err = r.Int(64)
		case "nextSpeciesId":
			speciesID, err = r.Int(strconv.IntSize)
		case "nextNodeId":
			nodeID, err = r.Int(32)
		case "genomes":
			return r.Array(func() error {
				g, err := r.Genome()
				genomes = append(genomes, g)
				return err
			})
		case "bestEver":
			bestEver, err = r.Genome()
		case "species":
			return r.Array(func() error {
				s, err := readSpecies(r)
				species = append(species, s)
				return err
			})
		case "rng":
			return decodeValue(r, &st)
		}
		return err
	})
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(genomes) == 0 {
		return nil, fmt.Errorf("checkpoint has no genomes")
	}
	// Save always writes exactly PopulationSize genomes; a mismatch
	// means a corrupt or hand-edited checkpoint. The check also bounds
	// the work a hostile PopulationSize can demand of later epochs to
	// the size of the document itself.
	if len(genomes) != cfg.PopulationSize {
		return nil, fmt.Errorf("checkpoint has %d genomes for population size %d",
			len(genomes), cfg.PopulationSize)
	}
	// The reader has validated every genome the document holds; a null
	// entry is the one that decodes without it.
	for i, g := range genomes {
		if g == nil {
			return nil, fmt.Errorf("genome %d is null", i)
		}
	}
	for _, s := range species {
		if s.Representative == nil {
			return nil, fmt.Errorf("species %d has no representative", s.ID)
		}
	}
	p := newPopulation(cfg, restoreSeed)
	if st != nil {
		p.rnd.SetState(*st)
	}
	p.Genomes = genomes
	p.Generation = int(generation)
	p.nextGenomeID = genomeID
	p.nextSpeciesID = int(speciesID)
	p.BestEver = bestEver
	if int32(nodeID) > p.ids.next {
		p.ids.next = int32(nodeID)
	}
	p.Species = species
	return p, nil
}

// readSpecies reads one species entry: its identity and stagnation
// state. Membership is rebuilt by the next speciation.
func readSpecies(r *gene.Reader) (*Species, error) {
	s := new(Species)
	err := r.Object(speciesKeys[:], func(k int) (err error) {
		var v int64
		switch speciesKeys[k] {
		case "id":
			v, err = r.Int(strconv.IntSize)
			s.ID = int(v)
		case "representative":
			s.Representative, err = r.Genome()
		case "bestFitness":
			s.BestFitness, err = r.Float()
		case "lastImproved":
			v, err = r.Int(strconv.IntSize)
			s.LastImproved = int(v)
		case "created":
			v, err = r.Int(strconv.IntSize)
			s.Created = int(v)
		}
		return err
	})
	return s, err
}

// decodeValue decodes the reader's next value into v with
// encoding/json, over that value's bytes alone.
func decodeValue(r *gene.Reader, v any) error {
	b, err := r.Value()
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
