package env

import (
	"math"

	"repro/internal/rng"
)

// MountainCar is the MountainCar-v0 task: drive an underpowered car out
// of a valley by building momentum (Table I). Two-float observation
// (position, velocity); three discrete actions (push left / coast /
// push right) decoded by argmax over three network outputs. Reward is
// −1 per step until the car reaches the right peak at x ≥ 0.5; episode
// budget 200 steps.
//
// Dynamics follow Moore (1990) / the gym implementation.
type MountainCar struct {
	pos, vel float64
	maxPos   float64 // highest position a step of this episode left
	steps    int
	rnd      *rng.XorWow
	obs      [2]float64
}

const (
	mcMinPos   = -1.2
	mcMaxPos   = 0.6
	mcMaxSpeed = 0.07
	mcGoal     = 0.5
	mcForce    = 0.001
	mcGravity  = 0.0025
	mcBudget   = 200
)

func init() { register("mountaincar", func() Env { return &MountainCar{rnd: rng.New(0)} }) }

// Name implements Env.
func (m *MountainCar) Name() string { return "mountaincar" }

// ObservationSize implements Env.
func (m *MountainCar) ObservationSize() int { return 2 }

// ActionSize implements Env.
func (m *MountainCar) ActionSize() int { return 3 }

// MaxSteps implements Env.
func (m *MountainCar) MaxSteps() int { return mcBudget }

// Reset implements Env: position uniform in [-0.6, -0.4), zero velocity.
func (m *MountainCar) Reset(seed uint64) []float64 {
	m.rnd.Seed(seed)
	m.pos = m.rnd.Range(-0.6, -0.4)
	m.vel = 0
	m.maxPos = mcMinPos
	m.steps = 0
	return m.observe()
}

func (m *MountainCar) observe() []float64 {
	m.obs = [2]float64{m.pos, m.vel}
	return m.obs[:]
}

// Step implements Env.
func (m *MountainCar) Step(action []float64) ([]float64, float64, bool) {
	done := m.advance(argmax(action), math.Cos(3*m.pos))
	return m.observe(), -1, done
}

// advance runs one step of the dynamics under action a (0 left,
// 1 coast, 2 right), given cos3 = cos(3·pos) of the current position,
// and reports whether the episode is over. The batch's vector kernel
// (vmath.MountainCarStep) twins the compiled instructions of Step and
// advance, so a change here must be made there too;
// FuzzMountainCarStep compares the two.
func (m *MountainCar) advance(a int, cos3 float64) bool {
	m.vel += float64(a-1)*mcForce - cos3*mcGravity
	m.vel = clamp(m.vel, -mcMaxSpeed, mcMaxSpeed)
	m.pos += m.vel
	m.pos = clamp(m.pos, mcMinPos, mcMaxPos)
	if m.pos <= mcMinPos && m.vel < 0 {
		m.vel = 0
	}
	if m.pos > m.maxPos {
		m.maxPos = m.pos
	}
	m.steps++
	return m.pos >= mcGoal || m.steps >= mcBudget
}

// AtGoal reports whether the car has reached the flag.
func (m *MountainCar) AtGoal() bool { return m.pos >= mcGoal }

// Position returns the car's current position.
func (m *MountainCar) Position() float64 { return m.pos }

// MaxPosition returns the highest position the episode's steps have
// reached, or the left wall (−1.2) before the first step: the start
// position does not count. It is the progress term of the workload's
// fitness.
func (m *MountainCar) MaxPosition() float64 { return m.maxPos }
