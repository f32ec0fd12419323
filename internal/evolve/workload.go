// Package evolve closes the GeneSys learning loop: it runs every genome
// of a NEAT population through an environment (steps 1–6 of the
// Section IV-B walkthrough), translates rewards into fitness, and
// collects the characterization metrics of Section III — per-generation
// operation counts, gene totals, memory footprint and parent reuse —
// that the figures and the hardware models consume.
package evolve

import (
	"fmt"

	"repro/internal/env"
)

// Shaper converts an episode's reward stream into a fitness value —
// the "Reward to Fitness" block of Fig. 6. The zero-state of a Shaper
// is reset per episode via Reset.
type Shaper interface {
	Reset()
	// Observe sees each step's observation and reward. Element i of
	// the observation is obs[i*stride+lane]: the batch engine passes its
	// struct-of-arrays observation plane in place, the scalar path its
	// observation slice with stride 1 and lane 0.
	Observe(obs []float64, stride, lane int, reward float64)
	// Fitness produces the episode fitness from the final environment
	// state and the step count.
	Fitness(e env.Env, steps int) float64
}

// cumReward is the default shaper: fitness = cumulative reward.
type cumReward struct{ total float64 }

func (c *cumReward) Reset()                                   { c.total = 0 }
func (c *cumReward) Observe(_ []float64, _, _ int, r float64) { c.total += r }
func (c *cumReward) Fitness(env.Env, int) float64             { return c.total }

// mcShaper shapes MountainCar: solving scores by speed; otherwise the
// best altitude reached provides a gradient toward the flag.
type mcShaper struct {
	maxPos float64
}

func (m *mcShaper) Reset() { m.maxPos = -1.2 }
func (m *mcShaper) Observe(obs []float64, _, lane int, _ float64) {
	if lane < len(obs) && obs[lane] > m.maxPos { // row 0: position
		m.maxPos = obs[lane]
	}
}
func (m *mcShaper) Fitness(e env.Env, steps int) float64 {
	if mc, ok := e.(*env.MountainCar); ok && mc.AtGoal() {
		return 100 + float64(e.MaxSteps()-steps)
	}
	// Progress shaping in [0, 100): scaled best position.
	return (m.maxPos + 1.2) / 1.7 * 90
}

// acShaper shapes Acrobot: solving scores by speed, otherwise by the
// tip height of the episode's final state, floored at −2. Observe keeps
// nothing, so Fitness sees only the final state, not the heights
// reached on the way.
type acShaper struct{ best float64 }

func (a *acShaper) Reset()                               { a.best = -2 }
func (a *acShaper) Observe([]float64, int, int, float64) {}
func (a *acShaper) Fitness(e env.Env, steps int) float64 {
	ac, ok := e.(*env.Acrobot)
	if !ok {
		return 0
	}
	h := ac.TipHeight()
	if h > a.best {
		a.best = h
	}
	if h > 1 {
		return 100 + float64(e.MaxSteps()-steps)
	}
	return (a.best + 2) / 3 * 90
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
	// NewShaper builds a fresh reward→fitness shaper.
	NewShaper func() Shaper
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
		NewShaper: func() Shaper { return &cumReward{} },
	},
	"mountaincar": {
		EnvName: "mountaincar", Episodes: 3,
		Target: 110, Floor: 0,
		NewShaper: func() Shaper { return &mcShaper{} },
	},
	"acrobot": {
		EnvName: "acrobot", Episodes: 2,
		Target: 100, Floor: 0,
		NewShaper: func() Shaper { return &acShaper{} },
	},
	"lunarlander": {
		EnvName: "lunarlander", Episodes: 3,
		Target: 200, Floor: -300,
		NewShaper: func() Shaper { return &cumReward{} },
	},
	"bipedal": {
		EnvName: "bipedal", Episodes: 2,
		Target: 20, Floor: -100,
		NewShaper: func() Shaper { return &cumReward{} },
	},
	"mario": {
		EnvName: "mario", Episodes: 2,
		Target: 0.95, Floor: 0,
		NewShaper: func() Shaper { return &cumReward{} },
	},
	"airraid-ram": {
		EnvName: "airraid-ram", Episodes: 1,
		Target: 200, Floor: -200,
		NewShaper: func() Shaper { return &cumReward{} },
	},
	"alien-ram": {
		EnvName: "alien-ram", Episodes: 1,
		Target: 150, Floor: -200,
		NewShaper: func() Shaper { return &cumReward{} },
	},
	"asterix-ram": {
		EnvName: "asterix-ram", Episodes: 1,
		Target: 180, Floor: -200,
		NewShaper: func() Shaper { return &cumReward{} },
	},
	"amidar-ram": {
		EnvName: "amidar-ram", Episodes: 1,
		Target: 180, Floor: -200,
		NewShaper: func() Shaper { return &cumReward{} },
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
