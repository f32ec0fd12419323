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

// acrobotTrigArgs returns, for joint angles θ1 and θ2, the angles
// whose trig acrobotDeriv takes: θ2 (cosine and sine), θ1+θ2−π/2 and
// θ1−π/2 (cosine).
func acrobotTrigArgs(th1, th2 float64) (a2, a12, a1 float64) {
	return th2, th1 + th2 - math.Pi/2, th1 - math.Pi/2
}

// acrobotDeriv returns the angular accelerations of both joints of the
// Spong acrobot model at angular velocities dth1 and dth2 under the
// given torque; the angle derivatives are the velocities themselves. The
// caller supplies the trig of the same state at acrobotTrigArgs: cos θ2,
// sin θ2, cos(θ1+θ2−π/2) and cos(θ1−π/2).
func acrobotDeriv(dth1, dth2, torque, cos2, sin2, cos12, cos1 float64) (ddth1, ddth2 float64) {
	m, l1, lc, i, g := acLinkMass, acLinkLen1, acLinkCOM, acInertia, acGravity

	d1 := m*lc*lc + m*(l1*l1+lc*lc+2*l1*lc*cos2) + 2*i
	d2 := m*(lc*lc+l1*lc*cos2) + i
	phi2 := m * lc * g * cos12
	phi1 := -m*l1*lc*dth2*dth2*sin2 -
		2*m*l1*lc*dth2*dth1*sin2 +
		(m*lc+m*l1)*g*cos1 + phi2

	ddth2 = (torque + d2/d1*phi1 - m*l1*lc*dth1*dth1*sin2 - phi2) /
		(m*lc*lc + i - d2*d2/d1)
	ddth1 = -(d2*ddth2 + phi1) / d1
	return ddth1, ddth2
}

// RK4 at acDt: stage i+1 evaluates the derivative at the step's start
// state plus acStageH[i] times stage i's slope, and the step adds acDt/6
// times the slope sum k1 + 2·k2 + 2·k3 + k4. The sum starts at k1 and
// adds each later stage's weighted slope in order (acRK4Weight), which
// rounds exactly as the expression written out does.
var (
	acStageH    = [3]float64{acDt / 2, acDt / 2, acDt}
	acRK4Weight = [4]float64{1, 2, 2, 1}
)

// Step implements Env using one RK4 step. The batch's vector kernel
// (vmath.AcrobotStep) twins its compiled instructions, acrobotDeriv's,
// advance's and acrobotDone's, so a change here must be made there
// too; FuzzAcrobotStep compares the two.
func (a *Acrobot) Step(action []float64) ([]float64, float64, bool) {
	torque := 0.0
	if len(action) > 0 {
		torque = clamp(action[0], -acTorqueMax, acTorqueMax)
	}
	x1, x2, v1, v2 := a.th1, a.th2, a.dth1, a.dth2 // the stage's state
	var s1, s2, s3, s4 float64                     // the slope sum
	for stage, wt := range acRK4Weight {
		a2, a12, a1 := acrobotTrigArgs(x1, x2)
		dd1, dd2 := acrobotDeriv(v1, v2, torque, math.Cos(a2), math.Sin(a2), math.Cos(a12), math.Cos(a1))
		if stage == 0 {
			s1, s2, s3, s4 = v1, v2, dd1, dd2
		} else {
			s1, s2, s3, s4 = s1+wt*v1, s2+wt*v2, s3+wt*dd1, s4+wt*dd2
		}
		if stage < len(acStageH) {
			h := acStageH[stage]
			x1, x2, v1, v2 = a.th1+h*v1, a.th2+h*v2, a.dth1+h*dd1, a.dth2+h*dd2
		}
	}
	a.advance(s1, s2, s3, s4)
	obs := a.observe()
	return obs, -1, acrobotDone(obs[0], math.Cos(a.th2+a.th1), a.steps)
}

// advance finishes one RK4 step with the slope sums of θ1, θ2, θ1' and
// θ2': angles wrap to [−π, π], velocities clamp.
func (a *Acrobot) advance(s1, s2, s3, s4 float64) {
	a.th1 = wrapAngle(a.th1 + acDt/6*s1)
	a.th2 = wrapAngle(a.th2 + acDt/6*s2)
	a.dth1 = clamp(a.dth1+acDt/6*s3, -acMaxVel1, acMaxVel1)
	a.dth2 = clamp(a.dth2+acDt/6*s4, -acMaxVel2, acMaxVel2)
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

func wrapAngle(th float64) float64 {
	for th > math.Pi {
		th -= 2 * math.Pi
	}
	for th < -math.Pi {
		th += 2 * math.Pi
	}
	return th
}
