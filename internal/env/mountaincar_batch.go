package env

import "repro/internal/vmath"

// mountainCarBatch is the native MountainCar batch: a groupBatch of
// vmath.MountainCarGroup values whose StepAll is one
// vmath.MountainCarStep call. Of the positions a step leaves, clamped
// to the track, only NaN puts cos(3·pos) outside the kernel's window.
type mountainCarBatch struct {
	groupBatch[MountainCar, vmath.MountainCarGroup, *MountainCar]
}

func newMountainCarBatch(width int) *mountainCarBatch {
	return &mountainCarBatch{newGroupBatch[MountainCar, vmath.MountainCarGroup]("mountaincar", width)}
}

func (b *mountainCarBatch) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	groups := b.groups[:(active+3)/4]
	vmath.MountainCarStep(groups, obs, rewards, done, actions, b.width, active)
	for g := range groups {
		if groups[g].Declined {
			b.stepScalar(g, obs, rewards, done, actions, active)
		}
	}
}

// load sets m's state to column c of g.
func (m *MountainCar) load(g *vmath.MountainCarGroup, c int) {
	m.pos, m.vel, m.maxPos, m.steps = g.Pos[c], g.Vel[c], g.MaxPos[c], int(g.Steps[c])
}

// store writes m's state to column c of g.
func (m *MountainCar) store(g *vmath.MountainCarGroup, c int) {
	g.Pos[c], g.Vel[c], g.MaxPos[c], g.Steps[c] = m.pos, m.vel, m.maxPos, int64(m.steps)
}
