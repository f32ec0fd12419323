package env

import "repro/internal/vmath"

// acrobotBatch is the native Acrobot batch: a laneBatch of Acrobot
// values whose StepAll runs every lane's whole step in one
// vmath.AcrobotStep call. It gathers the active lanes' state and
// actions into the kernel's 4-lane groups, zeroing the pad lanes of a
// partial last group (a fixed finite state, whose results are never
// read), and scatters the stepped state, the observation, the reward
// and the done flag back. The kernel is bit-identical to the scalar
// Step, which runs every lane of a group the kernel declines (a trig
// argument outside its window, or a host without AVX2+FMA), so a lane
// is bit-equal to a scalar Acrobot driven with the same seed and
// actions.
type acrobotBatch struct {
	laneBatch[Acrobot, *Acrobot]
	groups []vmath.AcrobotGroup // lanes 4g to 4g+3 are group g
}

func newAcrobotBatch(width int) *acrobotBatch {
	return &acrobotBatch{
		laneBatch: *newLaneBatch[Acrobot]("acrobot", width),
		groups:    make([]vmath.AcrobotGroup, (width+3)/4),
	}
}

func (b *acrobotBatch) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	w := b.width
	lanes := b.lanes[:active]
	groups := b.groups[:(active+3)/4]
	for lane := range 4 * len(groups) {
		g, l := &groups[lane>>2], lane&3
		if lane >= active {
			g.Th1[l], g.Th2[l], g.Dth1[l], g.Dth2[l], g.Torque[l] = 0, 0, 0, 0, 0
			continue
		}
		a := &lanes[lane]
		g.Th1[l], g.Th2[l], g.Dth1[l], g.Dth2[l] = a.th1, a.th2, a.dth1, a.dth2
		g.Torque[l] = actions[lane] // action plane row 0
	}
	vmath.AcrobotStep(groups)
	for lane := range lanes {
		a := &lanes[lane]
		g, l := &groups[lane>>2], lane&3
		if g.Declined {
			col, r, d := a.Step(actions[lane : lane+1])
			for i, v := range col {
				obs[i*w+lane] = v
			}
			rewards[lane], done[lane] = r, d
			continue
		}
		a.th1, a.th2, a.dth1, a.dth2 = g.Th1[l], g.Th2[l], g.Dth1[l], g.Dth2[l]
		a.steps++
		obs[lane], obs[w+lane] = g.Cos1[l], g.Sin1[l]
		obs[2*w+lane], obs[3*w+lane] = g.Cos2[l], g.Sin2[l]
		obs[4*w+lane], obs[5*w+lane] = a.dth1, a.dth2
		rewards[lane] = -1
		done[lane] = acrobotDone(g.Cos1[l], g.Cos21[l], a.steps)
	}
}
