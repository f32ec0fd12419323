package env

import "repro/internal/vmath"

// mountainCarBatch is the native MountainCar batch: a laneBatch of
// MountainCar values whose StepAll gathers 3·pos of every active lane
// into one row and makes one vector sin/cos call for all of them
// before running the scalar Step's own advance per lane. The kernel is
// bit-identical to math.Cos, so a lane is bit-equal to a scalar
// MountainCar driven with the same seed and actions.
type mountainCarBatch struct {
	laneBatch[MountainCar, *MountainCar]
	arg, sin, cos []float64 // 3·pos per lane, padded to the 4-lane quantum
}

func newMountainCarBatch(width int) *mountainCarBatch {
	// Pad lanes start at 0 and later hold a retired lane's last
	// argument; their results are never read.
	padded := (width + 3) &^ 3
	return &mountainCarBatch{
		laneBatch: *newLaneBatch[MountainCar]("mountaincar", width),
		arg:       make([]float64, padded),
		sin:       make([]float64, padded),
		cos:       make([]float64, padded),
	}
}

func (b *mountainCarBatch) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	w := b.width
	lanes := b.lanes[:active]
	arg := b.arg[:active]
	for lane := range lanes {
		arg[lane] = 3 * lanes[lane].pos
	}
	n := (active + 3) &^ 3
	vmath.SinCosSlice(b.sin[:n], b.cos[:n], b.arg[:n])
	cos := b.cos[:active]
	act0, act1, act2 := actions[0*w:0*w+active], actions[1*w:1*w+active], actions[2*w:2*w+active]
	obs0, obs1 := obs[0*w:0*w+active], obs[1*w:1*w+active]
	rw, dn := rewards[:active], done[:active]
	for lane := range lanes {
		m := &lanes[lane]
		col := [3]float64{act0[lane], act1[lane], act2[lane]}
		dn[lane] = m.advance(argmax(col[:]), cos[lane])
		obs0[lane], obs1[lane] = m.pos, m.vel
		rw[lane] = -1
	}
}
