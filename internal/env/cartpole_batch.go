package env

import (
	"repro/internal/rng"
	"repro/internal/vmath"
)

// cartPoleBatch is the native struct-of-arrays CartPole: per-lane state
// lives in parallel arrays and StepAll advances every live lane in one
// flat loop. Each lane executes the exact statement sequence of
// CartPole.Step — same expressions, same order, its own XorWow stream —
// so a lane is bit-equal to a scalar CartPole driven with the same
// seed and actions. The pole-angle sin/cos of all lanes are computed
// up front by the fused vector kernel, which is bit-identical to the
// math.Sin/math.Cos calls the scalar stepper makes.
type cartPoleBatch struct {
	width                    int
	x, xDot, theta, thetaDot []float64
	sinT, cosT               []float64 // per-step trig scratch
	steps                    []int
	rnd                      []rng.XorWow
}

func newCartPoleBatch(width int) *cartPoleBatch {
	return &cartPoleBatch{
		width:    width,
		x:        make([]float64, width),
		xDot:     make([]float64, width),
		theta:    make([]float64, width),
		thetaDot: make([]float64, width),
		sinT:     make([]float64, width),
		cosT:     make([]float64, width),
		steps:    make([]int, width),
		rnd:      make([]rng.XorWow, width),
	}
}

func (b *cartPoleBatch) Name() string         { return "cartpole" }
func (b *cartPoleBatch) ObservationSize() int { return 4 }
func (b *cartPoleBatch) ActionSize() int      { return 1 }
func (b *cartPoleBatch) MaxSteps() int        { return cartPoleBudget }
func (b *cartPoleBatch) Width() int           { return b.width }
func (b *cartPoleBatch) LaneEnv(int) Env      { return nil }

func (b *cartPoleBatch) observe(lane int, obs []float64) {
	w := b.width
	obs[0*w+lane] = b.x[lane]
	obs[1*w+lane] = b.xDot[lane]
	obs[2*w+lane] = b.theta[lane]
	obs[3*w+lane] = b.thetaDot[lane]
}

func (b *cartPoleBatch) ResetLane(lane int, seed uint64, obs []float64) {
	r := &b.rnd[lane]
	r.Seed(seed)
	b.x[lane] = r.Range(-0.05, 0.05)
	b.xDot[lane] = r.Range(-0.05, 0.05)
	b.theta[lane] = r.Range(-0.05, 0.05)
	b.thetaDot[lane] = r.Range(-0.05, 0.05)
	b.steps[lane] = 0
	b.observe(lane, obs)
}

func (b *cartPoleBatch) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	// Active-prefix reslices: one bounds check each here buys a
	// check-free inner loop, and the per-row observation slices turn
	// the column-major observe() writes into dense row writes.
	w := b.width
	xs, xDs := b.x[:active], b.xDot[:active]
	ths, thDs := b.theta[:active], b.thetaDot[:active]
	sts := b.steps[:active]
	act := actions[:active]
	rw, dn := rewards[:active], done[:active]
	obs0 := obs[0*w : 0*w+active]
	obs1 := obs[1*w : 1*w+active]
	obs2 := obs[2*w : 2*w+active]
	obs3 := obs[3*w : 3*w+active]
	// Pad the trig call to the 4-lane vector quantum: pad lanes hold a
	// retired lane's last angle or a never-loaded lane's zero, which
	// the kernel takes like any finite angle; their results are never
	// read.
	r4 := (active + 3) &^ 3
	if r4 > w {
		r4 = w
	}
	vmath.SinCosSlice(b.sinT[:r4], b.cosT[:r4], b.theta[:r4])
	sins, coss := b.sinT[:active], b.cosT[:active]
	for lane := range xs {
		force := -cpForceMag
		if act[lane] > 0.5 { // action plane row 0
			force = cpForceMag
		}
		theta, thetaDot := ths[lane], thDs[lane]
		cosT, sinT := coss[lane], sins[lane]
		temp := (force + cpPoleMassLen*thetaDot*thetaDot*sinT) / cpTotalMass
		thetaAcc := (cpGravity*sinT - cosT*temp) /
			(cpLength * (4.0/3.0 - cpMassPole*cosT*cosT/cpTotalMass))
		xAcc := temp - cpPoleMassLen*thetaAcc*cosT/cpTotalMass

		x := xs[lane] + cpTau*xDs[lane]
		xDot := xDs[lane] + cpTau*xAcc
		theta += cpTau * thetaDot
		thetaDot += cpTau * thetaAcc
		xs[lane], xDs[lane], ths[lane], thDs[lane] = x, xDot, theta, thetaDot
		sts[lane]++

		dn[lane] = x < -cpXLimit || x > cpXLimit ||
			theta < -cpThetaLimit || theta > cpThetaLimit ||
			sts[lane] >= cartPoleBudget
		rw[lane] = 1
		obs0[lane], obs1[lane], obs2[lane], obs3[lane] = x, xDot, theta, thetaDot
	}
}

func (b *cartPoleBatch) SwapLanes(i, j int) {
	b.x[i], b.x[j] = b.x[j], b.x[i]
	b.xDot[i], b.xDot[j] = b.xDot[j], b.xDot[i]
	b.theta[i], b.theta[j] = b.theta[j], b.theta[i]
	b.thetaDot[i], b.thetaDot[j] = b.thetaDot[j], b.thetaDot[i]
	b.steps[i], b.steps[j] = b.steps[j], b.steps[i]
	b.rnd[i], b.rnd[j] = b.rnd[j], b.rnd[i]
}
