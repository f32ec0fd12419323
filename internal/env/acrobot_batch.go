package env

import "repro/internal/vmath"

// acrobotBatch is the native Acrobot batch: a laneBatch of Acrobot
// values whose StepAll runs RK4 one stage at a time across all active
// lanes, with the stage state and the running slope sums in rows, one
// row per component. Each stage gathers every lane's three trig
// arguments into three rows laid out back to back, makes one vector
// sin/cos call for all of them, then runs the shared acrobotDeriv per
// lane on scalars. One more call over θ2, θ2+θ1 and θ1 gives the
// observation and the tip height. The vector kernel is bit-identical
// to math.Sin/math.Cos, and acrobotTrigArgs, acrobotDeriv, the RK4
// coefficients and advance are the scalar Step's own, in its order, so
// a lane is bit-equal to a scalar Acrobot driven with the same seed and
// actions.
type acrobotBatch struct {
	laneBatch[Acrobot, *Acrobot]
	torque         []float64
	x1, x2, v1, v2 []float64 // each lane's state at the current RK4 stage
	s1, s2, s3, s4 []float64 // each lane's running RK4 slope sum
	// Trig scratch: three rows of n lanes each, back to back, where n
	// is the active count rounded up to the 4-lane vector quantum. Per
	// RK4 stage the rows hold acrobotTrigArgs' θ2, θ1+θ2−π/2 and θ1−π/2;
	// for the observation θ2, θ2+θ1 and θ1.
	arg, sin, cos []float64
}

func newAcrobotBatch(width int) *acrobotBatch {
	row := func() []float64 { return make([]float64, width) }
	b := &acrobotBatch{
		laneBatch: *newLaneBatch[Acrobot]("acrobot", width),
		torque:    row(),
		x1:        row(), x2: row(), v1: row(), v2: row(),
		s1: row(), s2: row(), s3: row(), s4: row(),
	}
	// Pad lanes start at 0, which the kernel takes, and later hold
	// earlier arguments; their results are never read, and a pad the
	// kernel declines only sends its group to the fallback.
	padded := 3 * ((width + 3) &^ 3)
	b.arg = make([]float64, padded)
	b.sin = make([]float64, padded)
	b.cos = make([]float64, padded)
	return b
}

func (b *acrobotBatch) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	w := b.width
	n := (active + 3) &^ 3
	lanes := b.lanes[:active]
	torque := b.torque[:active]
	x1, x2, v1, v2 := b.x1[:active], b.x2[:active], b.v1[:active], b.v2[:active]
	s1, s2, s3, s4 := b.s1[:active], b.s2[:active], b.s3[:active], b.s4[:active]
	arg, sin, cos := b.arg[:3*n], b.sin[:3*n], b.cos[:3*n]
	arg0, arg1, arg2 := arg[:active], arg[n:n+active], arg[2*n:2*n+active]
	sin0, sin2 := sin[:active], sin[2*n:2*n+active]
	cos0, cos1, cos2 := cos[:active], cos[n:n+active], cos[2*n:2*n+active]
	for lane := range lanes {
		a := &lanes[lane]
		torque[lane] = clamp(actions[lane], -acTorqueMax, acTorqueMax) // action plane row 0
		x1[lane], x2[lane], v1[lane], v2[lane] = a.th1, a.th2, a.dth1, a.dth2
	}
	for stage, wt := range acRK4Weight {
		for lane := range lanes {
			arg0[lane], arg1[lane], arg2[lane] = acrobotTrigArgs(x1[lane], x2[lane])
		}
		vmath.SinCosSlice(sin, cos, arg)
		for lane := range lanes {
			dd1, dd2 := acrobotDeriv(v1[lane], v2[lane], torque[lane], cos0[lane], sin0[lane], cos1[lane], cos2[lane])
			if stage == 0 {
				s1[lane], s2[lane], s3[lane], s4[lane] = v1[lane], v2[lane], dd1, dd2
			} else {
				s1[lane] += wt * v1[lane]
				s2[lane] += wt * v2[lane]
				s3[lane] += wt * dd1
				s4[lane] += wt * dd2
			}
			if stage < len(acStageH) {
				a, h := &lanes[lane], acStageH[stage]
				x1[lane], x2[lane] = a.th1+h*v1[lane], a.th2+h*v2[lane]
				v1[lane], v2[lane] = a.dth1+h*dd1, a.dth2+h*dd2
			}
		}
	}
	for lane := range lanes {
		a := &lanes[lane]
		a.advance(s1[lane], s2[lane], s3[lane], s4[lane])
		arg0[lane], arg1[lane], arg2[lane] = a.th2, a.th2+a.th1, a.th1
	}
	vmath.SinCosSlice(sin, cos, arg)
	obs0, obs1 := obs[0*w:0*w+active], obs[1*w:1*w+active]
	obs2, obs3 := obs[2*w:2*w+active], obs[3*w:3*w+active]
	obs4, obs5 := obs[4*w:4*w+active], obs[5*w:5*w+active]
	rw, dn := rewards[:active], done[:active]
	for lane := range lanes {
		a := &lanes[lane]
		obs0[lane], obs1[lane] = cos2[lane], sin2[lane]
		obs2[lane], obs3[lane] = cos0[lane], sin0[lane]
		obs4[lane], obs5[lane] = a.dth1, a.dth2
		rw[lane] = -1
		dn[lane] = acrobotDone(cos2[lane], cos1[lane], a.steps)
	}
}
