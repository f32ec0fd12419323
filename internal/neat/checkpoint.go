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

// checkpoint is the serialized population state.
type checkpoint struct {
	Config        Config              `json:"config"`
	Generation    int                 `json:"generation"`
	NextGenomeID  int64               `json:"nextGenomeId"`
	NextSpeciesID int                 `json:"nextSpeciesId"`
	NextNodeID    int32               `json:"nextNodeId"`
	Genomes       []*gene.Genome      `json:"genomes"`
	BestEver      *gene.Genome        `json:"bestEver,omitempty"`
	Species       []speciesCheckpoint `json:"species,omitempty"`
	// RNG is the live PRNG stream at save time. When present, Restore
	// continues the stream bit-identically; older checkpoints without
	// it fall back to re-seeding from the restore seed.
	RNG *rng.State `json:"rng,omitempty"`
}

// speciesCheckpoint captures one species' identity and stagnation
// state; membership is reconstructed by re-speciating on restore.
type speciesCheckpoint struct {
	ID             int          `json:"id"`
	Representative *gene.Genome `json:"representative"`
	BestFitness    float64      `json:"bestFitness"`
	LastImproved   int          `json:"lastImproved"`
	Created        int          `json:"created"`
}

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

// Restore reads a checkpoint and resumes it. When the checkpoint
// carries a PRNG state (every checkpoint this version writes), the
// stream continues bit-identically and restoreSeed is only the
// fallback for older, stream-less checkpoints.
func Restore(r io.Reader, restoreSeed uint64) (*Population, error) {
	var cp checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("neat: restore: %w", err)
	}
	if err := cp.Config.Validate(); err != nil {
		return nil, fmt.Errorf("neat: restore: %w", err)
	}
	if len(cp.Genomes) == 0 {
		return nil, fmt.Errorf("neat: restore: checkpoint has no genomes")
	}
	// Save always writes exactly PopulationSize genomes; a mismatch
	// means a corrupt or hand-edited checkpoint. The check also bounds
	// the work a hostile PopulationSize can demand of later epochs to
	// the size of the document itself.
	if len(cp.Genomes) != cp.Config.PopulationSize {
		return nil, fmt.Errorf("neat: restore: checkpoint has %d genomes for population size %d",
			len(cp.Genomes), cp.Config.PopulationSize)
	}
	// Genome.UnmarshalJSON has validated every genome the document
	// holds; a null entry is the one that decodes without it.
	for i, g := range cp.Genomes {
		if g == nil {
			return nil, fmt.Errorf("neat: restore: genome %d is null", i)
		}
	}
	p := newPopulation(cp.Config, restoreSeed)
	if cp.RNG != nil {
		p.rnd.SetState(*cp.RNG)
	}
	p.Genomes = cp.Genomes
	p.Generation = cp.Generation
	p.nextGenomeID = cp.NextGenomeID
	p.nextSpeciesID = cp.NextSpeciesID
	p.BestEver = cp.BestEver
	if cp.NextNodeID > p.ids.next {
		p.ids.next = cp.NextNodeID
	}
	for _, sc := range cp.Species {
		if sc.Representative == nil {
			return nil, fmt.Errorf("neat: restore: species %d has no representative", sc.ID)
		}
		p.Species = append(p.Species, &Species{
			ID:             sc.ID,
			Representative: sc.Representative,
			BestFitness:    sc.BestFitness,
			LastImproved:   sc.LastImproved,
			Created:        sc.Created,
		})
	}
	return p, nil
}
