package env

import "repro/internal/vmath"

// lunarLanderBatch is the native LunarLander batch: a laneBatch of
// LunarLander values whose StepAll gathers the attitude of every active
// lane into one row and makes one vector sin/cos call for all of them
// before running the scalar Step's own advance per lane and writing the
// lane's observation straight into the plane. The kernel is
// bit-identical to math.Cos/math.Sin, so a lane is bit-equal to a
// scalar LunarLander driven with the same seed and actions. StepAll
// never steps a finished lane (the Batch contract), so Step's guard for
// an episode already over has no twin here.
type lunarLanderBatch struct {
	laneBatch[LunarLander, *LunarLander]
	arg, sin, cos []float64 // attitude per lane, padded to the 4-lane quantum
}

func newLunarLanderBatch(width int) *lunarLanderBatch {
	// Pad lanes start at 0 and later hold a retired lane's last
	// attitude; their results are never read.
	padded := (width + 3) &^ 3
	return &lunarLanderBatch{
		laneBatch: *newLaneBatch[LunarLander]("lunarlander", width),
		arg:       make([]float64, padded),
		sin:       make([]float64, padded),
		cos:       make([]float64, padded),
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
