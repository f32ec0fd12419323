//go:build amd64

package vmath

import "unsafe"

// sigmoidRowsVec is the fused sum-and-sigmoid layer kernel
// (exp_amd64.s). Its tasks are the leading whole 4-lane groups of lanes
// [0, n) of each vertex in rows, row by row; it runs them two at a time
// and returns how many it finished, stopping early at the first pair
// with a NaN exp argument and leaving the rest to the scalar loop in
// SigmoidLayer.Eval.
//
//go:noescape
func sigmoidRowsVec(vals, w, bias, resp *float64, off, src, rows *int32, nrows, stride, n int) int

// sinCosVec is the fused 4-lane sin+cos kernel (sincos_amd64.s) for
// finite |x| < 2^29. It processes leading groups of 4 and returns how
// many elements it wrote, stopping early at the first group with a
// NaN, an Inf or |x| ≥ 2^29.
//
//go:noescape
func sinCosVec(sinDst, cosDst, src *float64, n int) int

// mountainCarStepVec, lunarLanderStepVec and acrobotStepVec are the
// whole steps of three batch environments on the 4-lane groups of lanes
// [0, active) (sincos_amd64.s, beside sinCosVec, whose constant table,
// window check and polynomials they share). Each reads the action rows
// and writes the observation rows, the rewards and the done flags of
// the active lanes in place, and sets every group's Declined.
//
//go:noescape
func mountainCarStepVec(groups *MountainCarGroup, obs, rewards *float64, done *bool, actions *float64, stride, active int)

//go:noescape
func lunarLanderStepVec(groups *LunarLanderGroup, obs, rewards *float64, done *bool, actions *float64, stride, active int)

//go:noescape
func acrobotStepVec(groups *AcrobotGroup, obs, rewards *float64, done *bool, actions *float64, stride, active int)

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

func sigmoidRowsAccel(vals, w, bias, resp []float64, off, src, rows []int32, stride, n int) int {
	if !HaveVec || n < 4 || len(rows) == 0 {
		return 0
	}
	// With no fan-in anywhere, w and src may be empty; the kernel then
	// reads neither.
	return sigmoidRowsVec(&vals[0], unsafe.SliceData(w), &bias[0], &resp[0],
		&off[0], unsafe.SliceData(src), &rows[0], len(rows), stride, n)
}

func sinCosVecAccel(sinDst, cosDst, src []float64) int {
	if !HaveVec || len(src) < 4 {
		return 0
	}
	return sinCosVec(&sinDst[0], &cosDst[0], &src[0], len(src))
}
