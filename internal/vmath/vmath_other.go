//go:build !amd64

package vmath

// HaveVec is false off amd64: the kernels' callers run their scalar
// loops, which are the reference by definition.
var HaveVec = false

func sigmoidRowsAccel(vals, w, bias, resp []float64, off, src, rows []int32, stride, n int) int {
	return 0
}

func sinCosVecAccel(sinDst, cosDst, src []float64) int { return 0 }

func acrobotStepAccel(groups []AcrobotGroup) bool { return false }
