// Package vmath holds the 4-lane AVX2+FMA vector kernels the batch
// evaluation engine leans on. Every kernel is bit-identical to its
// math-package scalar: it mirrors the exact instruction-level rounding
// sequence of the stdlib implementation for arguments inside a fast
// window, and declines anything else to a scalar fallback. That
// property is what lets the batch engine promise byte-equal results to
// the serial reference path while still vectorizing the transcendental
// hot spots (sigmoid exp, and the sin/cos of the cartpole and acrobot
// batch environments).
package vmath

import "math"

// ExpSlice computes dst[i] = math.Exp(src[i]) for every i. On hosts
// with AVX2+FMA it runs a 4-lane vector kernel that mirrors the exact
// FMA instruction sequence of math.Exp's assembly path, so the results
// are bit-identical to calling math.Exp per element. Elements the
// vector kernel declines (trailing partial group, or anything at and
// after the first group with a lane outside [-690, 690]) fall back to
// math.Exp itself.
func ExpSlice(dst, src []float64) {
	if len(dst) < len(src) {
		panic("vmath: ExpSlice dst shorter than src")
	}
	i := expVecAccel(dst, src)
	for ; i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}

// Recip1pSlice computes dst[i] = 1 / (1 + src[i]) for every i — the
// sigmoid finish. This kernel needs no window: addition and division
// are correctly rounded IEEE-754 operations and the constant 1 is
// never NaN, so the 4-lane vector path is bit-identical to the scalar
// expression for every input, including NaN and ±Inf. Only the sub-4
// tail runs the scalar loop.
func Recip1pSlice(dst, src []float64) {
	if len(dst) < len(src) {
		panic("vmath: Recip1pSlice dst shorter than src")
	}
	i := recip1pAccel(dst, src)
	for ; i < len(src); i++ {
		dst[i] = 1 / (1 + src[i])
	}
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
