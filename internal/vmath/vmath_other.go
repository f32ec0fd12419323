//go:build !amd64

package vmath

// HaveVec is false off amd64: the kernels' callers run their scalar
// loops, which are the reference by definition.
var HaveVec = false

func sigmoidRowsAccel(vals, w, bias, resp []float64, off, src, rows []int32, stride, n int) int {
	return 0
}

func sinCosVecAccel(sinDst, cosDst, src []float64) int { return 0 }

// The step kernels are never called here: HaveVec is false.

func mountainCarStepVec(groups *MountainCarGroup, obs, rewards *float64, done *bool, actions *float64, stride, active int) {
	panic("vmath: no step kernel")
}

func lunarLanderStepVec(groups *LunarLanderGroup, obs, rewards *float64, done *bool, actions *float64, stride, active int) {
	panic("vmath: no step kernel")
}

func acrobotStepVec(groups *AcrobotGroup, obs, rewards *float64, done *bool, actions *float64, stride, active int) {
	panic("vmath: no step kernel")
}
