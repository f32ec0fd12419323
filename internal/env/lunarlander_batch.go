package env

import "repro/internal/vmath"

// lunarLanderBatch is the native LunarLander batch: a groupBatch of
// vmath.LunarLanderGroup values whose StepAll is one
// vmath.LunarLanderStep call. A group keeps the shaping potential of
// each lane's state beside it: a step's starting potential is the one
// the last step (or store) left, bit for bit the value the scalar
// advance recomputes, so the kernel computes one potential per step.
// StepAll never steps a finished lane (the Batch contract), so the
// groups keep no awake flag: a lane is awake until it lands or crashes.
type lunarLanderBatch struct {
	groupBatch[LunarLander, vmath.LunarLanderGroup, *LunarLander]
}

func newLunarLanderBatch(width int) *lunarLanderBatch {
	return &lunarLanderBatch{newGroupBatch[LunarLander, vmath.LunarLanderGroup]("lunarlander", width)}
}

func (b *lunarLanderBatch) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	groups := b.groups[:(active+3)/4]
	vmath.LunarLanderStep(groups, obs, rewards, done, actions, b.width, active)
	for g := range groups {
		if groups[g].Declined {
			b.stepScalar(g, obs, rewards, done, actions, active)
		}
	}
}

// flagBits is v as a group's flag row holds it: every bit set for true.
func flagBits(v bool) int64 {
	if v {
		return -1
	}
	return 0
}

// load sets l's state to column c of g.
func (l *LunarLander) load(g *vmath.LunarLanderGroup, c int) {
	l.x, l.y, l.vx, l.vy, l.angle, l.vA = g.X[c], g.Y[c], g.Vx[c], g.Vy[c], g.Angle[c], g.VA[c]
	l.leg1, l.leg2, l.steps = g.Leg1[c] != 0, g.Leg2[c] != 0, int(g.Steps[c])
	l.landed, l.crashed = g.Landed[c] != 0, g.Crashed[c] != 0
	l.awake = !l.landed && !l.crashed
}

// store writes l's state, with its shaping potential, to column c of g.
func (l *LunarLander) store(g *vmath.LunarLanderGroup, c int) {
	g.X[c], g.Y[c], g.Vx[c], g.Vy[c], g.Angle[c], g.VA[c] = l.x, l.y, l.vx, l.vy, l.angle, l.vA
	g.Shaping[c], g.Steps[c] = l.shaping(), int64(l.steps)
	g.Leg1[c], g.Leg2[c], g.Landed[c], g.Crashed[c] = flagBits(l.leg1), flagBits(l.leg2), flagBits(l.landed), flagBits(l.crashed)
}
