package env

import (
	"math"

	"repro/internal/rng"
)

// LunarLander is a from-scratch port of the LunarLander-v2 task: guide
// a module to a soft touchdown on a landing pad by firing its main and
// side thrusters (Table I). Eight-float observation (position,
// velocity, angle, angular velocity, two leg-contact flags); four
// discrete actions (coast / left thruster / main thruster / right
// thruster) decoded by argmax over four network outputs.
//
// The gym original runs on Box2D. This port integrates the same rigid
// body (position, velocity, attitude) with the same thrust/gravity
// magnitudes and reward shaping, but replaces contact resolution with
// an analytic flat-ground + pad model: what the policy experiences —
// the shaping gradients toward the pad and the crash/land outcomes —
// is preserved, which is what drives the evolution behaviour the paper
// characterizes.
type LunarLander struct {
	x, y       float64 // position, pad at origin, units ~ gym's viewport halves
	vx, vy     float64
	angle, vA  float64
	leg1, leg2 bool
	steps      int
	crashed    bool
	landed     bool
	awake      bool
	rnd        *rng.XorWow
	obs        [8]float64
}

const (
	llGravity    = -1.63 // per-step² units tuned to gym's scaled dynamics
	llMainThrust = 3.5   // main engine acceleration
	llSideThrust = 0.6   // side engine linear acceleration
	llSideTorque = 0.12  // side engine angular acceleration
	llDt         = 0.025 // integration step
	llPadHalf    = 0.2   // landing pad half-width
	llBudget     = 400   // step budget
	llSafeVy     = -0.30 // touchdown speed limit
	llSafeAngle  = 0.25  // touchdown attitude limit (rad)
	llFieldHalf  = 1.0   // playfield half-width
)

func init() { register("lunarlander", func() Env { return &LunarLander{rnd: rng.New(0)} }) }

// Name implements Env.
func (l *LunarLander) Name() string { return "lunarlander" }

// ObservationSize implements Env.
func (l *LunarLander) ObservationSize() int { return 8 }

// ActionSize implements Env.
func (l *LunarLander) ActionSize() int { return 4 }

// MaxSteps implements Env.
func (l *LunarLander) MaxSteps() int { return llBudget }

// Reset implements Env: the lander starts at the top of the field with
// a random lateral push, as in gym.
func (l *LunarLander) Reset(seed uint64) []float64 {
	l.rnd.Seed(seed)
	l.x = l.rnd.Range(-0.3, 0.3)
	l.y = 1.0
	l.vx = l.rnd.Range(-0.3, 0.3)
	l.vy = l.rnd.Range(-0.1, 0)
	l.angle = l.rnd.Range(-0.1, 0.1)
	l.vA = 0
	l.leg1, l.leg2 = false, false
	l.steps = 0
	l.crashed, l.landed = false, false
	l.awake = true
	return l.observe()
}

func (l *LunarLander) observe() []float64 {
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	l.obs = [8]float64{l.x, l.y, l.vx, l.vy, l.angle, l.vA, b(l.leg1), b(l.leg2)}
	return l.obs[:]
}

// shaping is the gym potential function: closer / slower / more upright
// is better; leg contact adds bonuses.
func (l *LunarLander) shaping() float64 {
	s := -100*math.Sqrt(l.x*l.x+l.y*l.y) -
		100*math.Sqrt(l.vx*l.vx+l.vy*l.vy) -
		100*math.Abs(l.angle)
	if l.leg1 {
		s += 10
	}
	if l.leg2 {
		s += 10
	}
	return s
}

// Step implements Env.
func (l *LunarLander) Step(action []float64) ([]float64, float64, bool) {
	if !l.awake {
		return l.observe(), 0, true
	}
	reward, done := l.advance(argmax(action), math.Cos(l.angle), math.Sin(l.angle))
	return l.observe(), reward, done
}

// advance runs one step of the dynamics under action a (0 coast,
// 1 left, 2 main, 3 right), given the cosine and sine of the current
// attitude, and returns the step's reward and whether the episode is
// over. The batch's vector kernel (vmath.LunarLanderStep) twins the
// compiled instructions of Step, advance and shaping, so a change here
// must be made there too; FuzzLunarLanderStep compares the two.
func (l *LunarLander) advance(a int, cosA, sinA float64) (float64, bool) {
	prev := l.shaping()
	fuel := 0.0
	switch a {
	case 1: // left thruster pushes right and rotates
		l.vx += llSideThrust * cosA * llDt
		l.vA -= llSideTorque
		fuel = 0.03
	case 2: // main engine thrusts along body axis
		l.vx += -llMainThrust * sinA * llDt
		l.vy += llMainThrust * cosA * llDt
		fuel = 0.3
	case 3:
		l.vx += -llSideThrust * cosA * llDt
		l.vA += llSideTorque
		fuel = 0.03
	}
	l.vy += llGravity * llDt
	l.x += l.vx * llDt
	l.y += l.vy * llDt
	l.angle += l.vA * llDt
	l.vA *= 0.99 // rotational damping
	l.steps++

	reward := 0.0
	// Ground interaction.
	if l.y <= 0 {
		l.y = 0
		onPad := math.Abs(l.x) <= llPadHalf
		soft := l.vy >= llSafeVy && math.Abs(l.angle) <= llSafeAngle
		if onPad && soft {
			l.leg1, l.leg2 = true, true
			// Settle: zero velocities; landed when still.
			l.vx, l.vy, l.vA = 0, 0, 0
			l.landed = true
			l.awake = false
			reward += 100
		} else {
			l.crashed = true
			l.awake = false
			reward -= 100
		}
	}
	// Out of the playfield counts as a crash.
	if math.Abs(l.x) > llFieldHalf || l.y > 1.5 {
		l.crashed = true
		l.awake = false
		reward -= 100
	}

	reward += l.shaping() - prev
	reward -= fuel
	return reward, !l.awake || l.steps >= llBudget
}

// Landed reports a successful touchdown.
func (l *LunarLander) Landed() bool { return l.landed }

// Crashed reports a crash or flyaway.
func (l *LunarLander) Crashed() bool { return l.crashed }
