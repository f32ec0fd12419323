package env

import (
	"repro/internal/rng"
	"repro/internal/vmath"
)

// lunarLanderBatch is the native LunarLander batch. Its lanes are
// LunarLander values, so LaneEnv hands the fitness shaper the lane's
// own *LunarLander, but StepAll gathers the attitude of every active
// lane into one row and makes one vector sin/cos call for all of them
// before running the scalar Step's own advance per lane and writing the
// lane's observation straight into the plane. The kernel is
// bit-identical to math.Cos/math.Sin, so a lane is bit-equal to a
// scalar LunarLander driven with the same seed and actions. StepAll
// never steps a finished lane (the Batch contract), so Step's guard for
// an episode already over has no twin here.
type lunarLanderBatch struct {
	width         int
	lanes         []LunarLander
	arg, sin, cos []float64 // attitude per lane, padded to the 4-lane quantum
}

func newLunarLanderBatch(width int) *lunarLanderBatch {
	// Pad lanes start at 0 and later hold a retired lane's last
	// attitude; their results are never read.
	padded := (width + 3) &^ 3
	b := &lunarLanderBatch{
		width: width,
		lanes: make([]LunarLander, width),
		arg:   make([]float64, padded),
		sin:   make([]float64, padded),
		cos:   make([]float64, padded),
	}
	for i := range b.lanes {
		b.lanes[i].rnd = rng.New(0)
	}
	return b
}

func (b *lunarLanderBatch) Name() string         { return "lunarlander" }
func (b *lunarLanderBatch) ObservationSize() int { return 8 }
func (b *lunarLanderBatch) ActionSize() int      { return 4 }
func (b *lunarLanderBatch) MaxSteps() int        { return llBudget }
func (b *lunarLanderBatch) Width() int           { return b.width }
func (b *lunarLanderBatch) LaneEnv(lane int) Env { return &b.lanes[lane] }
func (b *lunarLanderBatch) SwapLanes(i, j int)   { b.lanes[i], b.lanes[j] = b.lanes[j], b.lanes[i] }

func (b *lunarLanderBatch) ResetLane(lane int, seed uint64, obs []float64) {
	for i, v := range b.lanes[lane].Reset(seed) {
		obs[i*b.width+lane] = v
	}
}

func (b *lunarLanderBatch) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	w := b.width
	lanes := b.lanes[:active]
	arg := b.arg[:active]
	for lane := range lanes {
		arg[lane] = lanes[lane].angle
	}
	n := (active + 3) &^ 3
	vmath.SinCosSlice(b.sin[:n], b.cos[:n], b.arg[:n])
	sin, cos := b.sin[:active], b.cos[:active]
	act0, act1 := actions[0*w:0*w+active], actions[1*w:1*w+active]
	act2, act3 := actions[2*w:2*w+active], actions[3*w:3*w+active]
	rw, dn := rewards[:active], done[:active]
	for lane := range lanes {
		l := &lanes[lane]
		col := [4]float64{act0[lane], act1[lane], act2[lane], act3[lane]}
		rw[lane], dn[lane] = l.advance(argmax(col[:]), cos[lane], sin[lane])
		l.observeInto(obs[lane:], w)
	}
}
