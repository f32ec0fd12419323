// Package evolve closes the GeneSys learning loop: it runs every genome
// of a NEAT population through an environment (steps 1–6 of the
// Section IV-B walkthrough), translates rewards into fitness, and
// collects the characterization metrics of Section III — per-generation
// operation counts, gene totals, memory footprint and parent reuse —
// that the figures and the hardware models consume.
//
// Fig. 6's "Reward to Fitness" block, the one piece the paper changes
// between runs, is a workload's Fitness function. A rollout carries
// only each episode's running reward sum; Fitness turns that sum, the
// step count and the environment's final state into the episode's
// fitness once the episode ends. A task whose fitness needs more of the
// episode than its end state keeps it in the environment, as
// MountainCar keeps its highest position.
package evolve

import (
	"fmt"

	"repro/internal/env"
)

// cumulative is the plain fitness: the episode's summed reward.
func cumulative(_ env.Env, _ int, reward float64) float64 { return reward }

// mountainCarFitness scores a solved episode by its speed; otherwise
// the highest position reached gives a gradient toward the flag, in
// [0, 90].
func mountainCarFitness(e env.Env, steps int, _ float64) float64 {
	mc := e.(*env.MountainCar)
	if mc.AtGoal() {
		return 100 + float64(e.MaxSteps()-steps)
	}
	return (mc.MaxPosition() + 1.2) / 1.7 * 90
}

// acrobotFitness scores a solved episode by its speed; otherwise by the
// tip height of the episode's final state (not the heights reached on
// the way), floored at −2.
func acrobotFitness(e env.Env, steps int, _ float64) float64 {
	h := e.(*env.Acrobot).TipHeight()
	if h > 1 {
		return 100 + float64(e.MaxSteps()-steps)
	}
	if !(h > -2) { // a NaN height takes the floor too
		h = -2
	}
	return (h + 2) / 3 * 90
}

// Workload couples an environment with its fitness shaping, target and
// evaluation policy — one row of Table I plus the pieces the paper
// keeps in the "fitness function" slot (the only thing it changed
// between runs).
type Workload struct {
	// EnvName selects the environment from the env registry.
	EnvName string
	// Episodes averaged per fitness evaluation.
	Episodes int
	// Target is the raw fitness at which the task counts as solved.
	Target float64
	// Floor is the raw fitness corresponding to normalized 0 (used for
	// the normalized-fitness curves of Fig. 4a).
	Floor float64
	// Fitness is the "Reward to Fitness" block of Fig. 6: the fitness
	// of one finished episode, from the environment in its final state,
	// the episode's step count and its summed reward.
	Fitness func(e env.Env, steps int, reward float64) float64
}

// Normalize maps a raw fitness onto [0, ~1] with 1 at the target, the
// y-axis of Fig. 4(a).
func (w Workload) Normalize(fit float64) float64 {
	if w.Target == w.Floor {
		return 0
	}
	return (fit - w.Floor) / (w.Target - w.Floor)
}

// workloads registers the Table I suite.
var workloads = map[string]Workload{
	"cartpole": {
		EnvName: "cartpole", Episodes: 3,
		Target: 195, Floor: 0,
		Fitness: cumulative,
	},
	"mountaincar": {
		EnvName: "mountaincar", Episodes: 3,
		Target: 110, Floor: 0,
		Fitness: mountainCarFitness,
	},
	"acrobot": {
		EnvName: "acrobot", Episodes: 2,
		Target: 100, Floor: 0,
		Fitness: acrobotFitness,
	},
	"lunarlander": {
		EnvName: "lunarlander", Episodes: 3,
		Target: 200, Floor: -300,
		Fitness: cumulative,
	},
	"bipedal": {
		EnvName: "bipedal", Episodes: 2,
		Target: 20, Floor: -100,
		Fitness: cumulative,
	},
	"mario": {
		EnvName: "mario", Episodes: 2,
		Target: 0.95, Floor: 0,
		Fitness: cumulative,
	},
	"airraid-ram": {
		EnvName: "airraid-ram", Episodes: 1,
		Target: 200, Floor: -200,
		Fitness: cumulative,
	},
	"alien-ram": {
		EnvName: "alien-ram", Episodes: 1,
		Target: 150, Floor: -200,
		Fitness: cumulative,
	},
	"asterix-ram": {
		EnvName: "asterix-ram", Episodes: 1,
		Target: 180, Floor: -200,
		Fitness: cumulative,
	},
	"amidar-ram": {
		EnvName: "amidar-ram", Episodes: 1,
		Target: 180, Floor: -200,
		Fitness: cumulative,
	},
}

// WorkloadByName returns the named workload definition.
func WorkloadByName(name string) (Workload, error) {
	w, ok := workloads[name]
	if !ok {
		return Workload{}, fmt.Errorf("evolve: unknown workload %q", name)
	}
	return w, nil
}

// WorkloadNames lists the registered workloads (sorted via env.Names —
// every workload wraps a registered environment).
func WorkloadNames() []string {
	var out []string
	for _, n := range env.Names() {
		if _, ok := workloads[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// ControlSuite is the small-observation suite the paper plots first
// (classic control).
func ControlSuite() []string {
	return []string{"cartpole", "mountaincar", "lunarlander"}
}

// AtariSuite is the 128-byte RAM suite.
func AtariSuite() []string {
	return []string{"airraid-ram", "alien-ram", "asterix-ram", "amidar-ram"}
}

// PaperSuite is the six-workload set of Fig. 9 and Fig. 10: the three
// control tasks plus AirRaid, Amidar and Alien.
func PaperSuite() []string {
	return append(ControlSuite(), "airraid-ram", "amidar-ram", "alien-ram")
}
