// Package vmath holds the 4-lane AVX2+FMA vector kernels the batch
// evaluation engine leans on. Every kernel is bit-identical to the
// scalar Go it replaces: it performs the same IEEE-754 operations in
// the same order (and, for transcendentals, mirrors the exact
// instruction-level rounding sequence of the stdlib implementation)
// for arguments inside a fast window, and declines anything else to a
// scalar fallback. That property is what lets the batch engine promise
// byte-equal results to the serial reference path while still
// vectorizing its hot spots: a SigmoidLayer evaluates the
// sum-and-sigmoid vertices of a network layer in one fused kernel,
// SinCosSlice computes the trig of the CartPole and Bipedal batch
// environments, and AcrobotStep, MountainCarStep and LunarLanderStep
// each run one task's whole step, its sines and cosines SinCosSlice's,
// on the 4-lane groups its batch keeps its lanes' state in, reading
// the actions and writing the observations, rewards and done flags of
// the batch's planes in place.
package vmath

import "math"

// SigmoidLayer is the sum-aggregated sigmoid vertices of one layer of
// a batch of networks laid out lane-major ([row][lane], rows stride
// apart), with its structure checked once. The vertices are CSR-shaped:
// vertex p's fan-in edges are k in [off[p], off[p+1]), edge k reads
// source row src[k] through weight row k, and the vertex writes its own
// row p. No vertex in rows may read the row of another (vertices of one
// longest-path layer never do), so they may run in any order.
type SigmoidLayer struct {
	off, src, rows []int32
	stride         int
	// The plane lengths Eval needs, in whole rows: vals must hold every
	// vertex and source row, w the row of every edge, and bias and resp
	// every vertex row.
	valsLen, wLen, paramLen int
}

// NewSigmoidLayer checks the vertices in rows against off and src once,
// for planes of the given stride, so that Eval need only check lengths.
// It panics if a vertex is negative or has no entry in off, an edge
// range is inverted or runs past src, or a source row is negative.
func NewSigmoidLayer(off, src, rows []int32, stride int) SigmoidLayer {
	var top, topParam, topEdge int // one past the highest row each plane needs
	for _, p := range rows {
		if p < 0 || int(p)+1 >= len(off) {
			panic("vmath: SigmoidLayer vertex outside off")
		}
		topParam = max(topParam, int(p)+1)
		lo, hi := off[p], off[p+1]
		if lo < 0 || lo > hi || int(hi) > len(src) {
			panic("vmath: SigmoidLayer edge range outside src")
		}
		if hi > lo {
			topEdge = max(topEdge, int(hi))
		}
		for _, s := range src[lo:hi] {
			if s < 0 {
				panic("vmath: SigmoidLayer source row negative")
			}
			top = max(top, int(s)+1)
		}
	}
	top = max(top, topParam)
	return SigmoidLayer{
		off: off, src: src, rows: rows, stride: stride,
		valsLen: top * stride, wLen: topEdge * stride, paramLen: topParam * stride,
	}
}

// Eval evaluates the layer for lanes [0, n). For each vertex p in rows
// and each lane l it sets
//
//	acc := +0.0
//	for k := off[p]; k < off[p+1]; k++ {
//		acc += vals[src[k]*stride+l] * w[k*stride+l]
//	}
//	vals[p*stride+l] = 1 / (1 + math.Exp(-clamp(5*(bias[p*stride+l]+resp[p*stride+l]*acc))))
//
// where clamp bounds to ±60 and lets NaN through: the scalar network
// evaluator's operations in its order.
//
// On hosts with AVX2+FMA one fused kernel takes each row in whole
// 4-lane groups, n rounded up to a group but never past lane
// stride&^3, two groups at a time with their chains interleaved. It is
// bit-identical to the scalar expression, so the pad lanes it adds
// past n (computed from whatever the inputs' pad lanes hold) are the
// only lanes it writes beyond [0, n). It stops at the first pair of
// groups with a NaN exp argument. Those groups and every later one,
// the lanes past each row's last whole group, and every lane on other
// hosts run the scalar expression. Panics if n is outside [0, stride]
// or a plane is shorter than the whole rows the layer reads or writes.
func (ly *SigmoidLayer) Eval(vals, w, bias, resp []float64, n int) {
	stride := ly.stride
	if n < 0 || n > stride {
		panic("vmath: SigmoidLayer lane count outside the row")
	}
	if len(vals) < ly.valsLen || len(w) < ly.wLen || len(bias) < ly.paramLen || len(resp) < ly.paramLen {
		panic("vmath: SigmoidLayer plane shorter than its rows")
	}
	off, src, rows := ly.off, ly.src, ly.rows
	m := min((n+3)&^3, stride&^3) // lanes the kernel may take per row
	done := sigmoidRowsAccel(vals, w, bias, resp, off, src, rows, stride, m)
	groups := m / 4
	if m >= n && done == len(rows)*groups {
		return
	}
	for j, p := range rows {
		// Row j's groups are tasks j*groups onward; the kernel finished
		// the first done tasks.
		l := 4 * min(max(done-j*groups, 0), groups)
		r := int(p) * stride
		lo, hi := off[p], off[p+1]
		for ; l < n; l++ {
			var acc float64
			for k := lo; k < hi; k++ {
				acc += vals[int(src[k])*stride+l] * w[int(k)*stride+l]
			}
			vals[r+l] = 1 / (1 + math.Exp(-clampExp(5*(bias[r+l]+resp[r+l]*acc))))
		}
	}
}

// clampExp is the sigmoid's exp-argument bound: ±60, NaN passed
// through (the network package's clampExp).
func clampExp(x float64) float64 {
	if x > 60 {
		return 60
	}
	if x < -60 {
		return -60
	}
	return x
}

// SinCosSlice computes sinDst[i], cosDst[i] = math.Sin(src[i]),
// math.Cos(src[i]) for every i. The vector kernel covers every finite
// |x| < 2^29, the whole range where the stdlib reduces its argument
// with the three-part π/4 (Cody–Waite) subtraction rather than
// trigReduce. It performs exactly the stdlib's reduction, both
// polynomials and its octant sign and swap rules, lane for lane and
// without FMA, so results are bit-identical, ±0 included (sin keeps
// the zero's sign). Lanes at and after the first group with a NaN, an
// Inf or |x| ≥ 2^29, and the sub-4 tail, fall back to the stdlib
// scalars.
func SinCosSlice(sinDst, cosDst, src []float64) {
	if len(sinDst) < len(src) || len(cosDst) < len(src) {
		panic("vmath: SinCosSlice dst shorter than src")
	}
	i := sinCosVecAccel(sinDst, cosDst, src)
	for ; i < len(src); i++ {
		sinDst[i] = math.Sin(src[i])
		cosDst[i] = math.Cos(src[i])
	}
}

// The step kernels below run one batch environment's whole step on
// 4-lane groups, lane l of a batch being column l&3 of group l>>2. They
// share the batch's planes: lane l's action r is actions[r*stride+l],
// its observation r is obs[r*stride+l], and rewards[l] and done[l] are
// its reward and done flag. A call steps lanes [0, active) and touches
// no plane entry of a lane at or past active, nor any column of such a
// lane in groups. A group with a trig argument of an active lane
// outside the sin/cos window (NaN, ±Inf, |x| ≥ 2^29) is declined
// before any of it is written: its Declined is set and its lanes are
// left, state and planes, for the caller to step with the scalar code.
// On hosts without AVX2+FMA every group is. Each kernel's packed
// operations are the twins of the instructions of the compiled scalar
// step, with its constants and no FMA, and its sines and cosines are
// SinCosSlice's, so a stepped lane is bit-equal to the scalar's.

// checkPlanes panics unless lanes [0, active) fit in ngroups groups and
// in a row of the stride, and the planes hold them: obsRows observation
// rows, actRows action rows, a reward and a done flag per lane.
func checkPlanes(ngroups, obsRows, actRows int, obs, rewards []float64, done []bool, actions []float64, stride, active int) {
	if active < 0 || active > stride || active > 4*ngroups {
		panic("vmath: step lanes outside the groups or the row")
	}
	if active > 0 && (len(obs) < (obsRows-1)*stride+active || len(actions) < (actRows-1)*stride+active ||
		len(rewards) < active || len(done) < active) {
		panic("vmath: step plane shorter than its lanes")
	}
}

// MountainCarGroup is four lanes of env's MountainCar as
// MountainCarStep reads and writes them.
type MountainCarGroup struct {
	// The position, the velocity, the highest position the episode's
	// steps have left, and the steps taken.
	Pos, Vel, MaxPos [4]float64
	Steps            [4]int64
	// Declined reports that MountainCarStep left the group as it was.
	Declined bool
}

// MountainCarStep advances lanes [0, active) one MountainCar.Step on
// the planes' 3 action and 2 observation rows: the argmax of the
// actions, cos(3·pos), the push and gravity, the speed and position
// clamps, the left wall's stop, the highest position, then the
// observation, the reward of −1 and the goal-or-budget done test.
func MountainCarStep(groups []MountainCarGroup, obs, rewards []float64, done []bool, actions []float64, stride, active int) {
	checkPlanes(len(groups), 2, 3, obs, rewards, done, actions, stride, active)
	if active == 0 {
		return
	}
	if HaveVec {
		mountainCarStepVec(&groups[0], &obs[0], &rewards[0], &done[0], &actions[0], stride, active)
		return
	}
	for i := range groups[:(active+3)/4] {
		groups[i].Declined = true
	}
}

// LunarLanderGroup is four lanes of env's LunarLander as
// LunarLanderStep reads and writes them. A flag row holds −1 (every
// bit set) for true and 0 for false.
type LunarLanderGroup struct {
	// The position, velocity, attitude and angular velocity.
	X, Y, Vx, Vy, Angle, VA [4]float64
	// Shaping is the gym potential of the lane's state: the step's
	// reward is the change in it.
	Shaping [4]float64
	Steps   [4]int64
	// The leg contacts, and whether the episode ended in a landing or a
	// crash.
	Leg1, Leg2, Landed, Crashed [4]int64
	// Declined reports that LunarLanderStep left the group as it was.
	Declined bool
}

// LunarLanderStep advances lanes [0, active), each an episode still
// running, one LunarLander.Step on the planes' 4 action and 8
// observation rows: the argmax of the actions, the attitude's sine and
// cosine, the thrusters, gravity and the integration, the ground's
// landing or crash, the playfield's flyaway, the new potential, then
// the observation, the reward (the landing or crash bonus, the change
// in potential, the fuel) and the done test. The step starts from the
// potential in Shaping, which must be the one of the lane's state, and
// leaves the new state's there.
func LunarLanderStep(groups []LunarLanderGroup, obs, rewards []float64, done []bool, actions []float64, stride, active int) {
	checkPlanes(len(groups), 8, 4, obs, rewards, done, actions, stride, active)
	if active == 0 {
		return
	}
	if HaveVec {
		lunarLanderStepVec(&groups[0], &obs[0], &rewards[0], &done[0], &actions[0], stride, active)
		return
	}
	for i := range groups[:(active+3)/4] {
		groups[i].Declined = true
	}
}

// AcrobotGroup is four lanes of the Spong acrobot (env's Acrobot) as
// AcrobotStep reads and writes them.
type AcrobotGroup struct {
	// The joint angles θ1 and θ2, their velocities θ1' and θ2', and the
	// steps taken.
	Th1, Th2, Dth1, Dth2 [4]float64
	Steps                [4]int64
	// Declined reports that AcrobotStep left the group as it was.
	Declined bool
}

// AcrobotStep advances lanes [0, active) one Acrobot.Step on the
// planes' action row and 6 observation rows, bit for bit: the torque
// clamped to ±1, four RK4 stages of the Spong derivative at dt = 0.2,
// the angles wrapped into [−π, π] and the velocities clamped to ±4π and
// ±9π, then the observation (cos θ1, sin θ1, cos θ2, sin θ2, θ1', θ2'),
// the reward of −1 and the done test (the tip above the bar, or the
// budget spent). The kernel keeps a group's step in registers;
// inactive lanes step from a zero state whose results are not written.
// A group is declined for a trig argument outside the window in any
// RK4 stage or in the result.
func AcrobotStep(groups []AcrobotGroup, obs, rewards []float64, done []bool, actions []float64, stride, active int) {
	checkPlanes(len(groups), 6, 1, obs, rewards, done, actions, stride, active)
	if active == 0 {
		return
	}
	if HaveVec {
		acrobotStepVec(&groups[0], &obs[0], &rewards[0], &done[0], &actions[0], stride, active)
		return
	}
	for i := range groups[:(active+3)/4] {
		groups[i].Declined = true
	}
}
