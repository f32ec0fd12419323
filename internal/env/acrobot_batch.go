package env

import (
	"math"

	"repro/internal/rng"
	"repro/internal/vmath"
)

// acrobotBatch is the native Acrobot batch. Its lanes are Acrobot
// values, so LaneEnv hands the fitness shaper the lane's own *Acrobot,
// but StepAll runs RK4 one stage at a time across all active lanes:
// each stage gathers the trig arguments of every lane into rows, makes
// one vector sin/cos call per row, then runs the shared acrobotDeriv
// per lane. The vector kernel is bit-identical to math.Sin/math.Cos and
// acrobotDeriv and advance are the scalar Step's own code, so a lane is
// bit-equal to a scalar Acrobot driven with the same seed and actions.
type acrobotBatch struct {
	width  int
	lanes  []Acrobot
	torque []float64
	x      [][4]float64    // each lane's state at the current RK4 stage
	k      [4][][4]float64 // each lane's stage derivatives k1..k4
	// Trig rows, padded to the 4-lane vector quantum. Per RK4 stage
	// they hold θ2, θ1+θ2−π/2 and θ1−π/2; for the observation pass θ2,
	// θ2+θ1 and θ1.
	arg, sin, cos [3][]float64
}

func newAcrobotBatch(width int) *acrobotBatch {
	b := &acrobotBatch{
		width:  width,
		lanes:  make([]Acrobot, width),
		torque: make([]float64, width),
		x:      make([][4]float64, width),
	}
	for i := range b.lanes {
		b.lanes[i].rnd = rng.New(0)
	}
	for i := range b.k {
		b.k[i] = make([][4]float64, width)
	}
	// Pad lanes start at 0, which the kernel takes, and later hold a
	// retired lane's last arguments; their results are never read, and
	// a pad the kernel declines only sends its group to the fallback.
	padded := (width + 3) &^ 3
	for r := range b.arg {
		b.arg[r] = make([]float64, padded)
		b.sin[r] = make([]float64, padded)
		b.cos[r] = make([]float64, padded)
	}
	return b
}

func (b *acrobotBatch) Name() string         { return "acrobot" }
func (b *acrobotBatch) ObservationSize() int { return 6 }
func (b *acrobotBatch) ActionSize() int      { return 1 }
func (b *acrobotBatch) MaxSteps() int        { return acBudget }
func (b *acrobotBatch) Width() int           { return b.width }
func (b *acrobotBatch) LaneEnv(lane int) Env { return &b.lanes[lane] }
func (b *acrobotBatch) SwapLanes(i, j int)   { b.lanes[i], b.lanes[j] = b.lanes[j], b.lanes[i] }

// sinCosRows runs the vector kernel over the first active lanes of
// each trig row, rounded up to the 4-lane quantum.
func (b *acrobotBatch) sinCosRows(active int) {
	n := (active + 3) &^ 3
	for r := range b.arg {
		vmath.SinCosSlice(b.sin[r][:n], b.cos[r][:n], b.arg[r][:n])
	}
}

func (b *acrobotBatch) ResetLane(lane int, seed uint64, obs []float64) {
	for i, v := range b.lanes[lane].Reset(seed) {
		obs[i*b.width+lane] = v
	}
}

func (b *acrobotBatch) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	w := b.width
	lanes := b.lanes[:active]
	torque, x := b.torque[:active], b.x[:active]
	arg0, arg1, arg2 := b.arg[0][:active], b.arg[1][:active], b.arg[2][:active]
	sin0 := b.sin[0][:active]
	cos0, cos1, cos2 := b.cos[0][:active], b.cos[1][:active], b.cos[2][:active]
	for lane := range lanes {
		torque[lane] = clamp(actions[lane], -acTorqueMax, acTorqueMax) // action plane row 0
		x[lane] = lanes[lane].state()
	}
	// RK4 as Step runs it: stage i evaluates the derivative at x, and
	// the next stage's x is the step's start state plus h[i]·k[i].
	h := [3]float64{acDt / 2, acDt / 2, acDt}
	for stage, k := range b.k {
		k = k[:active]
		for lane, s := range x {
			arg0[lane] = s[1]
			arg1[lane] = s[0] + s[1] - math.Pi/2
			arg2[lane] = s[0] - math.Pi/2
		}
		b.sinCosRows(active)
		for lane := range x {
			k[lane] = acrobotDeriv(x[lane], torque[lane], cos0[lane], sin0[lane], cos1[lane], cos2[lane])
			if stage < len(h) {
				x[lane] = addScaled(lanes[lane].state(), k[lane], h[stage])
			}
		}
	}
	k1, k2, k3, k4 := b.k[0][:active], b.k[1][:active], b.k[2][:active], b.k[3][:active]
	for lane := range lanes {
		a := &lanes[lane]
		a.advance(a.state(), k1[lane], k2[lane], k3[lane], k4[lane])
		arg0[lane] = a.th2
		arg1[lane] = a.th2 + a.th1
		arg2[lane] = a.th1
	}
	b.sinCosRows(active)
	sin2 := b.sin[2][:active]
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
