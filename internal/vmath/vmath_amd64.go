//go:build amd64

package vmath

// expVec is the 4-lane AVX2+FMA exp kernel (exp_amd64.s). It processes
// leading groups of 4 and returns how many elements it wrote; it stops
// early at the first group containing a lane outside [-690, 690] (the
// range where math.Exp's assembly takes no special-case branch),
// leaving the remainder to the scalar fallback in ExpSlice.
//
//go:noescape
func expVec(dst, src *float64, n int) int

// sinCosVec is the fused 4-lane sin+cos kernel (sincos_amd64.s) for
// finite |x| < 2^29. Same contract: leading groups, early stop on the
// first group with a NaN, an Inf or |x| ≥ 2^29.
//
//go:noescape
func sinCosVec(sinDst, cosDst, src *float64, n int) int

// recip1pVec is the 4-lane sigmoid-finish kernel (recip_amd64.s):
// dst = 1/(1+src). Correctly rounded ops only, so it takes every
// leading 4-group regardless of value; the return is len(src)&^3.
//
//go:noescape
func recip1pVec(dst, src *float64, n int) int

// cpuidLeaf and xgetbv0 are thin wrappers over CPUID / XGETBV(0),
// used once at init to decide whether the vector kernels are safe.
func cpuidLeaf(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// HaveVec reports AVX2 + FMA with OS-enabled YMM state — whether the
// vector kernels are active on this host. Exported so differential
// tests can assert which path they exercised.
var HaveVec = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidLeaf(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, ecx1, _ := cpuidLeaf(1, 0)
	if ecx1&(fmaBit|osxsaveBit|avxBit) != fmaBit|osxsaveBit|avxBit {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	xlo, _ := xgetbv0()
	if xlo&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidLeaf(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

func expVecAccel(dst, src []float64) int {
	if !HaveVec || len(src) < 4 {
		return 0
	}
	return expVec(&dst[0], &src[0], len(src))
}

func sinCosVecAccel(sinDst, cosDst, src []float64) int {
	if !HaveVec || len(src) < 4 {
		return 0
	}
	return sinCosVec(&sinDst[0], &cosDst[0], &src[0], len(src))
}

func recip1pAccel(dst, src []float64) int {
	if !HaveVec || len(src) < 4 {
		return 0
	}
	return recip1pVec(&dst[0], &src[0], len(src))
}
