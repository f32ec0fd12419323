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

// terrainHeight is a deterministic rolling ground profile.
func (b *Bipedal) terrainHeight(x float64) float64 {
	s := float64(b.terrainSeed%97) / 97
	return 0.08*math.Sin(0.7*x+6*s) + 0.04*math.Sin(1.9*x+13*s)
}

func (b *Bipedal) observe() []float64 {
	o := b.obs[:0]
	bf := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	o = append(o, b.pitch, b.vPitch, b.vx, b.vy)
	for i := 0; i < 2; i++ {
		o = append(o, b.hip[i], b.dHip[i], b.knee[i], b.dKnee[i], bf(b.contact[i]))
	}
	// 10-ray forward terrain lidar, each ray relative to the ground
	// under the hull.
	ground := b.terrainHeight(b.x)
	for r := 0; r < bwLidarLen; r++ {
		ahead := b.x + 0.2*float64(r+1)
		o = append(o, b.terrainHeight(ahead)-ground)
	}
	copy(b.obs[:], o)
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
	fuel := 0.0
	for i := 0; i < 2; i++ {
		b.dHip[i] = bwJointVel * torque[2*i]
		b.dKnee[i] = bwJointVel * torque[2*i+1]
		b.hip[i] = clamp(b.hip[i]+b.dHip[i]*bwDt, -1.2, 1.2)
		b.knee[i] = clamp(b.knee[i]+b.dKnee[i]*bwDt, -1.2, 1.2)
		fuel += math.Abs(torque[2*i]) + math.Abs(torque[2*i+1])
	}

	// Stance detection: the lower (more extended) leg carries the hull.
	ext := [2]float64{}
	for i := 0; i < 2; i++ {
		// Foot drop below hip: extended knee and forward hip lengthen
		// the leg.
		ext[i] = math.Cos(b.hip[i]) + math.Cos(b.knee[i])
	}
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
	done := b.fallen || b.steps >= bwBudget
	return b.observe(), reward, done
}

// Distance returns the hull's forward progress.
func (b *Bipedal) Distance() float64 { return b.x }
