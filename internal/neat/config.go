// Package neat implements the NEAT neuro-evolution algorithm
// (Stanley & Miikkulainen, GECCO 2002) — the learning algorithm the
// GeneSys hardware accelerates.
//
// NEAT evolves both the topology and the weights of neural networks
// (a TWEANN). A population of genomes starts from minimal
// input↔output topologies; each generation the genomes are scored in an
// environment, grouped into species by structural similarity, protected
// by fitness sharing, and reproduced through crossover and four kinds of
// mutation (perturb, add node, add connection, delete gene) — exactly
// the operation set the EvE processing-element pipeline implements
// (Fig. 3(d) and Fig. 7 of the paper).
//
// The implementation follows the neat-python semantics the paper's
// characterization used (key-based gene alignment, per-species fitness
// apportioning, stagnation) while exposing the per-gene operation
// counters and reproduction traces that drive the hardware models.
package neat

import (
	"fmt"

	"repro/internal/gene"
)

// Config collects every tunable of the algorithm. DefaultConfig returns
// the values used throughout the paper reproduction; the zero value is
// not usable.
type Config struct {
	// PopulationSize is the number of genomes per generation, at most
	// MaxPopulationSize. The paper runs NEAT's classic 150.
	PopulationSize int

	// NumInputs and NumOutputs fix the sensor/actuator interface; the
	// initial population is fully connected input→output with zero
	// weights (Section III-B of the paper).
	NumInputs  int
	NumOutputs int

	// InitialConnection selects how the first generation is wired:
	// "full" (every input to every output, the paper's setup) or
	// "none" (unconnected; connections must evolve).
	InitialConnection string

	// --- Speciation ---

	// CompatThreshold is the compatibility-distance cutoff for species
	// membership.
	CompatThreshold float64
	// CompatDisjointCoeff scales the unmatched-gene term of the
	// compatibility distance.
	CompatDisjointCoeff float64
	// CompatWeightCoeff scales the matching-gene attribute-difference
	// term.
	CompatWeightCoeff float64
	// MaxStagnation is the number of generations a species may go
	// without improving before it is culled.
	MaxStagnation int
	// SpeciesElitism is the minimum number of species protected from
	// stagnation culling.
	SpeciesElitism int

	// --- Reproduction ---

	// Elitism is the number of top genomes copied verbatim into the next
	// generation within each species.
	Elitism int
	// SurvivalThreshold is the fraction of each species allowed to be a
	// parent.
	SurvivalThreshold float64
	// CrossoverRate is the probability a child is produced by two-parent
	// crossover (otherwise a single parent is cloned before mutation).
	CrossoverRate float64
	// MinSpeciesSize floors the offspring apportioned to each species.
	MinSpeciesSize int
	// TournamentSize biases parent picks toward fitter survivors: each
	// parent is the fittest of this many uniform draws from the pool.
	// Size 1 is uniform selection. Fitness-concentrated selection is
	// what produces the paper's genome-level reuse — the fittest parent
	// contributing to tens of children per generation (Fig. 4c) — which
	// the multicast NoC then exploits.
	TournamentSize int

	// --- Mutation: connection weights / node attributes ---

	// WeightMutateRate is the per-gene probability a connection weight
	// is perturbed or replaced.
	WeightMutateRate float64
	// WeightReplaceRate is the sub-probability (within a weight
	// mutation) that the weight is redrawn rather than perturbed.
	WeightReplaceRate float64
	// WeightPerturbPower is the standard deviation of weight
	// perturbations.
	WeightPerturbPower float64
	// WeightInitPower is the standard deviation used when a weight is
	// initialized or replaced.
	WeightInitPower float64
	// BiasMutateRate, BiasPerturbPower control node-bias mutation.
	BiasMutateRate   float64
	BiasPerturbPower float64
	// ResponseMutateRate, ResponsePerturbPower control the node response
	// (gain) attribute.
	ResponseMutateRate   float64
	ResponsePerturbPower float64
	// ActivationMutateRate is the per-node probability of switching the
	// activation function.
	ActivationMutateRate float64
	// AggregationMutateRate is the per-node probability of switching the
	// aggregation function.
	AggregationMutateRate float64
	// EnableMutateRate is the per-connection probability of toggling the
	// enabled flag.
	EnableMutateRate float64

	// --- Mutation: structural ---

	// AddNodeProb is the per-child probability of splitting a connection
	// with a new node.
	AddNodeProb float64
	// AddConnProb is the per-child probability of adding a connection.
	AddConnProb float64
	// DeleteNodeProb is the per-child probability of deleting a hidden
	// node (the Delete Gene engine's node path).
	DeleteNodeProb float64
	// DeleteConnProb is the per-child probability of deleting a
	// connection.
	DeleteConnProb float64
	// MaxDeletedNodes caps node deletions per child — the "threshold
	// amount of nodes previously deleted" check that keeps the genome
	// alive in the Delete Gene engine (Section IV-C3).
	MaxDeletedNodes int

	// CrossoverBias is the probability that each attribute of a matching
	// gene is taken from the fitter parent — the programmable bias input
	// of the crossover engine (Fig. 7). Default 0.5.
	CrossoverBias float64

	// LocalNodeIDs switches new-node id assignment from the global
	// population counter (neat-python semantics, default) to the
	// hardware-faithful "max id in this genome + 1" rule the Add Gene
	// engine implements. Used by the ablation benches.
	LocalNodeIDs bool

	// FeedForwardOnly rejects mutations that would create cycles, so
	// every phenotype stays a DAG (the paper's inference model processes
	// acyclic directed graphs).
	FeedForwardOnly bool
}

// DefaultConfig returns the configuration used for the paper
// reproduction: NEAT's classic population of 150 with neat-python-style
// rates, sized for io inputs and outputs.
func DefaultConfig(numInputs, numOutputs int) Config {
	return Config{
		PopulationSize:    150,
		NumInputs:         numInputs,
		NumOutputs:        numOutputs,
		InitialConnection: "full",

		CompatThreshold:     3.0,
		CompatDisjointCoeff: 1.0,
		CompatWeightCoeff:   0.5,
		MaxStagnation:       15,
		SpeciesElitism:      2,

		Elitism:           2,
		SurvivalThreshold: 0.2,
		CrossoverRate:     0.75,
		MinSpeciesSize:    2,
		TournamentSize:    3,

		WeightMutateRate:      0.8,
		WeightReplaceRate:     0.1,
		WeightPerturbPower:    0.5,
		WeightInitPower:       1.0,
		BiasMutateRate:        0.7,
		BiasPerturbPower:      0.5,
		ResponseMutateRate:    0.1,
		ResponsePerturbPower:  0.1,
		ActivationMutateRate:  0.05,
		AggregationMutateRate: 0.03,
		EnableMutateRate:      0.05,

		AddNodeProb:     0.1,
		AddConnProb:     0.3,
		DeleteNodeProb:  0.05,
		DeleteConnProb:  0.15,
		MaxDeletedNodes: 1,

		CrossoverBias: 0.5,

		FeedForwardOnly: true,
	}
}

// MaxPopulationSize bounds every population: far above any run this
// repository makes (at most 400 genomes; the CLIs default to 150), yet
// small enough that a population at the bound fits in memory on every
// workload. A size from outside the program (a job spec, a population
// document) is checked against it before anything is allocated.
const MaxPopulationSize = 10000

// Validate reports configuration errors before a run starts.
func (c Config) Validate() error {
	switch {
	case c.PopulationSize <= 0:
		return fmt.Errorf("neat: population size %d must be positive", c.PopulationSize)
	case c.PopulationSize > MaxPopulationSize:
		return fmt.Errorf("neat: population size %d above the bound %d", c.PopulationSize, MaxPopulationSize)
	case c.NumInputs <= 0:
		return fmt.Errorf("neat: need at least one input, have %d", c.NumInputs)
	case c.NumOutputs <= 0:
		return fmt.Errorf("neat: need at least one output, have %d", c.NumOutputs)
	case c.NumInputs+c.NumOutputs > gene.MaxNodeID:
		return fmt.Errorf("neat: %d io nodes exceed the 16-bit hardware id space",
			c.NumInputs+c.NumOutputs)
	case c.InitialConnection != "full" && c.InitialConnection != "none":
		return fmt.Errorf("neat: unknown initial connection scheme %q", c.InitialConnection)
	case c.SurvivalThreshold <= 0 || c.SurvivalThreshold > 1:
		return fmt.Errorf("neat: survival threshold %v outside (0,1]", c.SurvivalThreshold)
	case c.CrossoverRate < 0 || c.CrossoverRate > 1:
		return fmt.Errorf("neat: crossover rate %v outside [0,1]", c.CrossoverRate)
	case c.CompatThreshold <= 0:
		return fmt.Errorf("neat: compatibility threshold %v must be positive", c.CompatThreshold)
	case c.Elitism < 0:
		return fmt.Errorf("neat: elitism %d must be non-negative", c.Elitism)
	}
	return nil
}

// InputIDs returns the node ids reserved for inputs: 0..NumInputs-1.
func (c Config) InputIDs() []int32 {
	ids := make([]int32, c.NumInputs)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// OutputIDs returns the node ids reserved for outputs:
// NumInputs..NumInputs+NumOutputs-1.
func (c Config) OutputIDs() []int32 {
	ids := make([]int32, c.NumOutputs)
	for i := range ids {
		ids[i] = int32(c.NumInputs + i)
	}
	return ids
}
