package env

import (
	"math"

	"repro/internal/rng"
)

// Acrobot is the two-link underactuated pendulum of Table I: swing the
// tip of a double pendulum above the bar by torquing only the joint
// between the links. Six-float observation (cos/sin of both joint
// angles plus both angular velocities); one continuous action (torque,
// clamped to ±1) per Table I's "one floating point number". Reward is
// −1 per step until the tip exceeds one link-length above the pivot;
// budget 500 steps.
//
// Dynamics are the standard Spong (1995) equations used by gym,
// integrated with RK4 at dt = 0.2 s.
type Acrobot struct {
	th1, th2, dth1, dth2 float64
	steps                int
	rnd                  *rng.XorWow
	obs                  [6]float64
}

const (
	acLinkLen1  = 1.0
	acLinkMass  = 1.0
	acLinkCOM   = 0.5
	acInertia   = 1.0
	acGravity   = 9.8
	acDt        = 0.2
	acMaxVel1   = 4 * math.Pi
	acMaxVel2   = 9 * math.Pi
	acBudget    = 500
	acTorqueMax = 1.0
)

func init() { register("acrobot", func() Env { return &Acrobot{rnd: rng.New(0)} }) }

// Name implements Env.
func (a *Acrobot) Name() string { return "acrobot" }

// ObservationSize implements Env.
func (a *Acrobot) ObservationSize() int { return 6 }

// ActionSize implements Env.
func (a *Acrobot) ActionSize() int { return 1 }

// MaxSteps implements Env.
func (a *Acrobot) MaxSteps() int { return acBudget }

// Reset implements Env: all state uniform in ±0.1.
func (a *Acrobot) Reset(seed uint64) []float64 {
	a.rnd.Seed(seed)
	a.th1 = a.rnd.Range(-0.1, 0.1)
	a.th2 = a.rnd.Range(-0.1, 0.1)
	a.dth1 = a.rnd.Range(-0.1, 0.1)
	a.dth2 = a.rnd.Range(-0.1, 0.1)
	a.steps = 0
	return a.observe()
}

func (a *Acrobot) observe() []float64 {
	a.obs = [6]float64{
		math.Cos(a.th1), math.Sin(a.th1),
		math.Cos(a.th2), math.Sin(a.th2),
		a.dth1, a.dth2,
	}
	return a.obs[:]
}

// acrobotDeriv returns the state derivative for the Spong acrobot
// model at state s = (θ1, θ2, θ1', θ2') under the given torque. The
// caller supplies the trig values it needs: cos θ2, sin θ2,
// cos(θ1+θ2−π/2) and cos(θ1−π/2) of this same state. The scalar Step
// computes them with math.Cos/math.Sin and the batch with the vector
// kernel, which is bit-identical, so both run the same float
// operations.
func acrobotDeriv(s [4]float64, torque, cos2, sin2, cos12, cos1 float64) [4]float64 {
	dth1, dth2 := s[2], s[3]
	m, l1, lc, i, g := acLinkMass, acLinkLen1, acLinkCOM, acInertia, acGravity

	d1 := m*lc*lc + m*(l1*l1+lc*lc+2*l1*lc*cos2) + 2*i
	d2 := m*(lc*lc+l1*lc*cos2) + i
	phi2 := m * lc * g * cos12
	phi1 := -m*l1*lc*dth2*dth2*sin2 -
		2*m*l1*lc*dth2*dth1*sin2 +
		(m*lc+m*l1)*g*cos1 + phi2

	ddth2 := (torque + d2/d1*phi1 - m*l1*lc*dth1*dth1*sin2 - phi2) /
		(m*lc*lc + i - d2*d2/d1)
	ddth1 := -(d2*ddth2 + phi1) / d1
	return [4]float64{dth1, dth2, ddth1, ddth2}
}

// acrobotDerivAt is acrobotDeriv with the trig computed by the stdlib.
func acrobotDerivAt(s [4]float64, torque float64) [4]float64 {
	th1, th2 := s[0], s[1]
	return acrobotDeriv(s, torque, math.Cos(th2), math.Sin(th2),
		math.Cos(th1+th2-math.Pi/2), math.Cos(th1-math.Pi/2))
}

// Step implements Env using one RK4 step.
func (a *Acrobot) Step(action []float64) ([]float64, float64, bool) {
	torque := 0.0
	if len(action) > 0 {
		torque = clamp(action[0], -acTorqueMax, acTorqueMax)
	}
	s := a.state()
	k1 := acrobotDerivAt(s, torque)
	k2 := acrobotDerivAt(addScaled(s, k1, acDt/2), torque)
	k3 := acrobotDerivAt(addScaled(s, k2, acDt/2), torque)
	k4 := acrobotDerivAt(addScaled(s, k3, acDt), torque)
	a.advance(s, k1, k2, k3, k4)
	obs := a.observe()
	return obs, -1, acrobotDone(obs[0], math.Cos(a.th2+a.th1), a.steps)
}

// state is the integrator state (θ1, θ2, θ1', θ2').
func (a *Acrobot) state() [4]float64 {
	return [4]float64{a.th1, a.th2, a.dth1, a.dth2}
}

// advance finishes one RK4 step from s with the four stage
// derivatives: angles wrap to [−π, π], velocities clamp.
func (a *Acrobot) advance(s, k1, k2, k3, k4 [4]float64) {
	for j := 0; j < 4; j++ {
		s[j] += acDt / 6 * (k1[j] + 2*k2[j] + 2*k3[j] + k4[j])
	}
	a.th1 = wrapAngle(s[0])
	a.th2 = wrapAngle(s[1])
	a.dth1 = clamp(s[2], -acMaxVel1, acMaxVel1)
	a.dth2 = clamp(s[3], -acMaxVel2, acMaxVel2)
	a.steps++
}

// acrobotDone reports the end of an episode from cos θ1 and
// cos(θ2+θ1): the tip has risen one link length above the pivot
// (TipHeight > 1), or the step budget is spent.
func acrobotDone(cos1, cos21 float64, steps int) bool {
	return -cos1-cos21 > 1.0 || steps >= acBudget
}

// TipHeight returns the tip elevation (fitness shaping input).
func (a *Acrobot) TipHeight() float64 {
	return -math.Cos(a.th1) - math.Cos(a.th2+a.th1)
}

func addScaled(s, d [4]float64, h float64) [4]float64 {
	for j := 0; j < 4; j++ {
		s[j] += h * d[j]
	}
	return s
}

func wrapAngle(th float64) float64 {
	for th > math.Pi {
		th -= 2 * math.Pi
	}
	for th < -math.Pi {
		th += 2 * math.Pi
	}
	return th
}
