package env

import (
	"math"

	"repro/internal/rng"
)

// Bipedal is a simplified stand-in for BipedalWalker (Table I): evolve
// locomotion control for a two-legged hull over gently varying terrain.
// It keeps the interface of the gym task — a 24-float observation
// (hull state, joint angles/speeds, leg contacts and a 10-ray terrain
// lidar) and 4 continuous torque outputs — while replacing the Box2D
// articulated body with a reduced planar model: each leg is a
// hip+knee chain whose foot supports the hull when in stance, and
// forward progress comes from coordinated stance-leg torque, so the
// policy must still discover an alternating gait rather than a single
// constant output.
type Bipedal struct {
	// hull state
	x, vx, y, vy, pitch, vPitch float64
	// joints: hip and knee per leg
	hip, knee, dHip, dKnee [2]float64
	contact                [2]bool
	steps                  int
	fallen                 bool
	terrainSeed            uint64
	rnd                    *rng.XorWow
	obs                    [24]float64
}

const (
	bwDt        = 0.05
	bwBudget    = 600
	bwJointVel  = 3.0  // torque-to-joint-speed gain
	bwStride    = 0.35 // stance-leg drive to hull speed
	bwHullDamp  = 0.90
	bwPitchGain = 0.08
	bwFallPitch = 0.9
	bwLidarLen  = 10
)

func init() { register("bipedal", func() Env { return &Bipedal{rnd: rng.New(0)} }) }

// Name implements Env.
func (b *Bipedal) Name() string { return "bipedal" }

// ObservationSize implements Env.
func (b *Bipedal) ObservationSize() int { return 24 }

// ActionSize implements Env: hip and knee torques for both legs.
func (b *Bipedal) ActionSize() int { return 4 }

// MaxSteps implements Env.
func (b *Bipedal) MaxSteps() int { return bwBudget }

// Reset implements Env.
func (b *Bipedal) Reset(seed uint64) []float64 {
	b.rnd.Seed(seed)
	b.terrainSeed = seed
	b.x, b.vx = 0, 0
	b.y, b.vy = 1, 0
	b.pitch, b.vPitch = b.rnd.Range(-0.05, 0.05), 0
	for i := 0; i < 2; i++ {
		b.hip[i] = b.rnd.Range(-0.2, 0.2)
		b.knee[i] = b.rnd.Range(-0.2, 0.2)
		b.dHip[i], b.dKnee[i] = 0, 0
	}
	b.contact = [2]bool{true, false}
	b.steps = 0
	b.fallen = false
	return b.observe()
}

// bwLidarArgs is the number of sine arguments of one observation's
// ground profile: two for the ground under the hull and two for each
// lidar ray.
const bwLidarArgs = 2 * (1 + bwLidarLen)

// lidarArgs writes the sine arguments of the ground profile, a
// deterministic rolling terrain, under the hull and at each lidar ray:
// args[2j] and args[2j+1] for point j, the hull at j = 0 and ray j
// 0.2·j ahead of it.
func (b *Bipedal) lidarArgs(args []float64) {
	s := float64(b.terrainSeed%97) / 97
	for j := 0; j <= bwLidarLen; j++ {
		x := b.x + 0.2*float64(j)
		args[2*j], args[2*j+1] = 0.7*x+6*s, 1.9*x+13*s
	}
}

// observeInto writes the observation to dst[0], dst[stride], …,
// dst[23*stride] (the scalar Step's own array, or a lane's column of a
// batch's observation plane), given the sines of lidarArgs' arguments.
// The 10-ray forward terrain lidar reads each ray relative to the
// ground under the hull.
func (b *Bipedal) observeInto(dst []float64, stride int, sines []float64) {
	bf := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	dst[0*stride], dst[1*stride] = b.pitch, b.vPitch
	dst[2*stride], dst[3*stride] = b.vx, b.vy
	for i := 0; i < 2; i++ {
		r := 4 + 5*i
		dst[r*stride], dst[(r+1)*stride] = b.hip[i], b.dHip[i]
		dst[(r+2)*stride], dst[(r+3)*stride] = b.knee[i], b.dKnee[i]
		dst[(r+4)*stride] = bf(b.contact[i])
	}
	height := func(j int) float64 { return 0.08*sines[2*j] + 0.04*sines[2*j+1] }
	ground := height(0)
	for j := 1; j <= bwLidarLen; j++ {
		dst[(13+j)*stride] = height(j) - ground
	}
}

func (b *Bipedal) observe() []float64 {
	var args, sines [bwLidarArgs]float64
	b.lidarArgs(args[:])
	for i, x := range args {
		sines[i] = math.Sin(x)
	}
	b.observeInto(b.obs[:], 1, sines[:])
	return b.obs[:]
}

// Step implements Env. Torques move the joints; the stance leg's hip
// torque propels the hull; pitch follows the asymmetry of the leg
// poses and the hull falls when it tips too far.
func (b *Bipedal) Step(action []float64) ([]float64, float64, bool) {
	if b.fallen {
		return b.observe(), 0, true
	}
	var torque [4]float64
	for i := 0; i < 4 && i < len(action); i++ {
		torque[i] = clamp(action[i], -1, 1)
	}
	fuel := b.actuate(torque)
	reward, done := b.advance(fuel, math.Cos(b.hip[0]), math.Cos(b.knee[0]), math.Cos(b.hip[1]), math.Cos(b.knee[1]))
	return b.observe(), reward, done
}

// actuate drives the joints with the clamped hip and knee torques of
// both legs (hip 0, knee 0, hip 1, knee 1) and returns the step's fuel.
func (b *Bipedal) actuate(torque [4]float64) float64 {
	fuel := 0.0
	for i := 0; i < 2; i++ {
		b.dHip[i] = bwJointVel * torque[2*i]
		b.dKnee[i] = bwJointVel * torque[2*i+1]
		b.hip[i] = clamp(b.hip[i]+b.dHip[i]*bwDt, -1.2, 1.2)
		b.knee[i] = clamp(b.knee[i]+b.dKnee[i]*bwDt, -1.2, 1.2)
		fuel += math.Abs(torque[2*i]) + math.Abs(torque[2*i+1])
	}
	return fuel
}

// advance finishes the step that actuate began, given the cosines of
// the moved joint angles, and returns the step's reward and whether
// the episode is over. The scalar Step computes the cosines with
// math.Cos and the batch with the vector kernel, which is
// bit-identical, so both run the same float operations.
func (b *Bipedal) advance(fuel, cosHip0, cosKnee0, cosHip1, cosKnee1 float64) (float64, bool) {
	// Stance detection: the lower (more extended) leg carries the hull.
	// Foot drop below hip: extended knee and forward hip lengthen the
	// leg.
	ext := [2]float64{cosHip0 + cosKnee0, cosHip1 + cosKnee1}
	stance := 0
	if ext[1] > ext[0] {
		stance = 1
	}
	swing := 1 - stance
	b.contact[stance] = true
	b.contact[swing] = ext[swing] > ext[stance]-0.05

	// Propulsion: stance hip rotating backwards drives the hull
	// forwards; if both legs push the same way the gait stalls (pitch
	// grows), so alternation is required.
	drive := -b.dHip[stance] * bwStride
	b.vx = bwHullDamp*b.vx + drive*bwDt*10
	b.vx = clamp(b.vx, -1.5, 1.5)
	b.x += b.vx * bwDt

	// Pitch follows leg-pose asymmetry and propulsion torque.
	b.vPitch += bwPitchGain * (b.hip[0] + b.hip[1]) * bwDt * 10
	b.vPitch *= 0.95
	b.pitch += b.vPitch * bwDt * 10
	b.steps++

	if math.Abs(b.pitch) > bwFallPitch {
		b.fallen = true
	}
	reward := 10*b.vx*bwDt - 0.003*fuel - 0.05*math.Abs(b.pitch)
	if b.fallen {
		reward -= 100
	}
	return reward, b.fallen || b.steps >= bwBudget
}

// Distance returns the hull's forward progress.
func (b *Bipedal) Distance() float64 { return b.x }
