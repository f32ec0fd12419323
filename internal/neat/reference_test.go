package neat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/gene"
	"repro/internal/rng"
)

// The encoding/json checkpoint codec that Save and Restore replaced,
// kept as the reference the differential tests and FuzzRestore pin
// them against. referenceSave and referenceRestore are the former
// bodies; genomes still go through gene.Genome's own codec, as they
// did then.

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

// referenceRestore is Restore's encoding/json implementation. It reads
// the first JSON value of data and ignores the rest, matches keys in
// any letter case, lets a repeated key overwrite and reads null as
// zero: inputs Restore rejects.
func referenceRestore(data []byte, restoreSeed uint64) (*Population, error) {
	var cp checkpoint
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("neat: restore: %w", err)
	}
	if err := cp.Config.Validate(); err != nil {
		return nil, fmt.Errorf("neat: restore: %w", err)
	}
	if len(cp.Genomes) == 0 {
		return nil, fmt.Errorf("neat: restore: checkpoint has no genomes")
	}
	if len(cp.Genomes) != cp.Config.PopulationSize {
		return nil, fmt.Errorf("neat: restore: checkpoint has %d genomes for population size %d",
			len(cp.Genomes), cp.Config.PopulationSize)
	}
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
