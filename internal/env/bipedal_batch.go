package env

import "repro/internal/vmath"

// bipedalBatch is the native Bipedal batch: a laneBatch of Bipedal
// values whose StepAll makes two vector sin/cos calls for all active
// lanes: one for the four moved joint angles of every lane, between the
// scalar Step's own actuate and advance, and one for the lidar's sine
// arguments of every lane, before each lane writes its observation
// straight into the plane. The kernel is bit-identical to
// math.Sin/math.Cos, so a lane is bit-equal to a scalar Bipedal driven
// with the same seed and actions. StepAll never steps a finished lane
// (the Batch contract), so Step's guard for a fallen hull has no twin
// here.
type bipedalBatch struct {
	laneBatch[Bipedal, *Bipedal]
	fuel []float64
	// Trig scratch, lane-major: hip 0, knee 0, hip 1 and knee 1 of every
	// lane (four per lane, so whole 4-lane groups), and every lane's
	// bwLidarArgs lidar arguments, padded to the 4-lane quantum.
	joint, jointSin, jointCos []float64
	lidar, lidarSin, lidarCos []float64
}

func newBipedalBatch(width int) *bipedalBatch {
	// Lidar pad lanes start at 0 and later hold earlier arguments; their
	// results are never read.
	padded := (bwLidarArgs*width + 3) &^ 3
	return &bipedalBatch{
		laneBatch: *newLaneBatch[Bipedal]("bipedal", width),
		fuel:      make([]float64, width),
		joint:     make([]float64, 4*width),
		jointSin:  make([]float64, 4*width),
		jointCos:  make([]float64, 4*width),
		lidar:     make([]float64, padded),
		lidarSin:  make([]float64, padded),
		lidarCos:  make([]float64, padded),
	}
}

func (b *bipedalBatch) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	w := b.width
	lanes := b.lanes[:active]
	fuel := b.fuel[:active]
	act0, act1 := actions[0*w:0*w+active], actions[1*w:1*w+active]
	act2, act3 := actions[2*w:2*w+active], actions[3*w:3*w+active]
	joint := b.joint[:4*active]
	for lane := range lanes {
		bw := &lanes[lane]
		fuel[lane] = bw.actuate([4]float64{
			clamp(act0[lane], -1, 1), clamp(act1[lane], -1, 1),
			clamp(act2[lane], -1, 1), clamp(act3[lane], -1, 1),
		})
		j := joint[4*lane : 4*lane+4]
		j[0], j[1], j[2], j[3] = bw.hip[0], bw.knee[0], bw.hip[1], bw.knee[1]
	}
	vmath.SinCosSlice(b.jointSin[:4*active], b.jointCos[:4*active], joint)
	cos := b.jointCos[:4*active]
	n := (bwLidarArgs*active + 3) &^ 3
	lidar := b.lidar[:n]
	rw, dn := rewards[:active], done[:active]
	for lane := range lanes {
		bw := &lanes[lane]
		c := cos[4*lane : 4*lane+4]
		rw[lane], dn[lane] = bw.advance(fuel[lane], c[0], c[1], c[2], c[3])
		bw.lidarArgs(lidar[bwLidarArgs*lane : bwLidarArgs*(lane+1)])
	}
	vmath.SinCosSlice(b.lidarSin[:n], b.lidarCos[:n], lidar)
	for lane := range lanes {
		lanes[lane].observeInto(obs[lane:], w, b.lidarSin[bwLidarArgs*lane:bwLidarArgs*(lane+1)])
	}
}
