package env

import "repro/internal/vmath"

// acrobotBatch is the native Acrobot batch: a groupBatch of
// vmath.AcrobotGroup values whose StepAll is one vmath.AcrobotStep
// call, which reads the torque row.
type acrobotBatch struct {
	groupBatch[Acrobot, vmath.AcrobotGroup, *Acrobot]
}

func newAcrobotBatch(width int) *acrobotBatch {
	return &acrobotBatch{newGroupBatch[Acrobot, vmath.AcrobotGroup]("acrobot", width)}
}

func (b *acrobotBatch) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	groups := b.groups[:(active+3)/4]
	vmath.AcrobotStep(groups, obs, rewards, done, actions, b.width, active)
	for g := range groups {
		if groups[g].Declined {
			b.stepScalar(g, obs, rewards, done, actions, active)
		}
	}
}

// load sets a's state to column c of g.
func (a *Acrobot) load(g *vmath.AcrobotGroup, c int) {
	a.th1, a.th2, a.dth1, a.dth2, a.steps = g.Th1[c], g.Th2[c], g.Dth1[c], g.Dth2[c], int(g.Steps[c])
}

// store writes a's state to column c of g.
func (a *Acrobot) store(g *vmath.AcrobotGroup, c int) {
	g.Th1[c], g.Th2[c], g.Dth1[c], g.Dth2[c], g.Steps[c] = a.th1, a.th2, a.dth1, a.dth2, int64(a.steps)
}
