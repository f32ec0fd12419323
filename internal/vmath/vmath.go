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
// SinCosSlice computes the trig of the classic-control batch
// environments, and AcrobotStep runs Acrobot's whole RK4 step, its
// sines and cosines SinCosSlice's, on 4-lane groups.
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

// AcrobotGroup is four lanes of the Spong acrobot (env's Acrobot) as
// AcrobotStep reads and writes them: lane l of every row is one lane.
type AcrobotGroup struct {
	// Read: the joint angles θ1 and θ2, their velocities θ1' and θ2',
	// and the torque before its clamp. A stepped group's state is
	// written back advanced.
	Th1, Th2, Dth1, Dth2, Torque [4]float64
	// Written: cos θ1, sin θ1, cos θ2, sin θ2 and cos(θ2+θ1) of the
	// advanced state.
	Cos1, Sin1, Cos2, Sin2, Cos21 [4]float64
	// Declined reports that AcrobotStep left the group's lanes as they
	// were.
	Declined bool
}

// AcrobotStep advances every group one step of env's scalar
// Acrobot.Step, bit for bit: the torque clamped to ±1, four RK4 stages
// of the Spong derivative at dt = 0.2, the angles wrapped into [−π, π]
// and the velocities clamped to ±4π and ±9π, then the trig of the
// observation and the done test. On hosts with AVX2+FMA one kernel
// takes each group whole in registers. Each of its packed operations
// is the twin of one instruction of the compiled scalar code, with the
// same constants and no FMA, and its sines and cosines are
// SinCosSlice's. A group with any trig argument outside the sin/cos
// window (NaN, ±Inf, |x| ≥ 2^29), in any RK4 stage or in the result,
// is declined before any of it is written; on other hosts every group
// is. The caller steps a declined group's lanes with the scalar code.
func AcrobotStep(groups []AcrobotGroup) {
	if acrobotStepAccel(groups) {
		return
	}
	for i := range groups {
		groups[i].Declined = true
	}
}
