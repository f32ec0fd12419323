package vmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkSinCos runs SinCosSlice over src and fails on the first lane
// whose sin or cos bits differ from math.Sin / math.Cos.
func checkSinCos(t *testing.T, src []float64) {
	t.Helper()
	sinDst := make([]float64, len(src))
	cosDst := make([]float64, len(src))
	SinCosSlice(sinDst, cosDst, src)
	for i, x := range src {
		ws, wc := math.Sin(x), math.Cos(x)
		if math.Float64bits(sinDst[i]) != math.Float64bits(ws) {
			t.Fatalf("sin(%v) = %v (bits %016x), math.Sin = %v (bits %016x) at index %d",
				x, sinDst[i], math.Float64bits(sinDst[i]), ws, math.Float64bits(ws), i)
		}
		if math.Float64bits(cosDst[i]) != math.Float64bits(wc) {
			t.Fatalf("cos(%v) = %v (bits %016x), math.Cos = %v (bits %016x) at index %d",
				x, cosDst[i], math.Float64bits(cosDst[i]), wc, math.Float64bits(wc), i)
		}
	}
}

// forceScalar turns the vector kernels off until the test ends.
func forceScalar(t *testing.T) {
	t.Helper()
	saved := HaveVec
	HaveVec = false
	t.Cleanup(func() { HaveVec = saved })
}

// TestSinCosSliceBitIdentical pins the fused kernel to the stdlib
// scalars on every input class: the whole Cody–Waite range the vector
// path owns (|x| < 2^29, octant boundaries and subnormals included),
// signed zeros (whose sin sign must survive), and the values that force
// the scalar fallback (NaN, ±Inf, |x| ≥ 2^29). The "scalar-path"
// subtest repeats every class with the vector kernel switched off, so
// the fallback is pinned on any host.
func TestSinCosSliceBitIdentical(t *testing.T) {
	t.Logf("vector kernel enabled: %v", HaveVec)
	sinCosClasses(t)
	t.Run("scalar-path", func(t *testing.T) {
		forceScalar(t)
		sinCosClasses(t)
	})
}

func sinCosClasses(t *testing.T) {
	uniform := func(seed int64, n int, r float64) []float64 {
		rnd := rand.New(rand.NewSource(seed))
		src := make([]float64, n)
		for i := range src {
			src[i] = (rnd.Float64()*2 - 1) * r
		}
		return src
	}

	t.Run("cartpole-range", func(t *testing.T) {
		// The batch stepper feeds pole angles; sweep their realistic
		// band densely, both signs.
		src := make([]float64, 0, 100001)
		for x := -0.25; x <= 0.25; x += 0.000005 {
			src = append(src, x)
		}
		checkSinCos(t, src)
	})

	t.Run("random-window", func(t *testing.T) {
		checkSinCos(t, uniform(71, 1<<16, math.Pi/4))
	})

	t.Run("random-full-range", func(t *testing.T) {
		// ±10 and ±3π cover acrobot's angles and their π/2 shifts;
		// ±2^29 reaches the top of the Cody–Waite range.
		checkSinCos(t, uniform(73, 1<<16, 10))
		checkSinCos(t, uniform(74, 1<<16, 3*math.Pi))
		checkSinCos(t, uniform(75, 1<<16, 1<<29))
	})

	t.Run("octant-boundaries", func(t *testing.T) {
		// k·π/4 and its neighbours one ulp away, where j and the
		// rounding of the reduction change.
		src := make([]float64, 0, 3*20001)
		for k := -10000; k <= 10000; k++ {
			x := float64(k) * (math.Pi / 4)
			src = append(src, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
		checkSinCos(t, src)
	})

	t.Run("boundaries", func(t *testing.T) {
		q := math.Pi / 4
		checkSinCos(t, []float64{
			q, -q, math.Nextafter(q, 0), math.Nextafter(-q, 0),
			math.Nextafter(q, 1), math.Nextafter(-q, -1),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			0.5, -0.5, 0.75, -0.75, 0.8, -0.8,
		})
	})

	t.Run("range-limit", func(t *testing.T) {
		// 2^29 is the first value the stdlib sends to trigReduce.
		lim := float64(1 << 29)
		below, above := math.Nextafter(lim, 0), math.Nextafter(lim, math.Inf(1))
		checkSinCos(t, []float64{
			below, -below, below, -below,
			lim, -lim, above, -above,
			below, lim, -below, 1,
		})
	})

	t.Run("subnormals", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(76))
		src := make([]float64, 4096)
		for i := range src {
			bits := rnd.Uint64() & (1<<52 - 1) // exponent field 0
			bits |= rnd.Uint64() & (1 << 63)
			src[i] = math.Float64frombits(bits)
		}
		checkSinCos(t, src)
	})

	t.Run("signed-zeros", func(t *testing.T) {
		// math.Sin(±0) = ±0. The vector path reduces ±0 to z = +0 and
		// restores the sign from x, so the -0 sign must survive in
		// full vector groups as well as in the scalar tail.
		checkSinCos(t, []float64{
			0, math.Copysign(0, -1), 0.1, math.Copysign(0, -1),
			0, 0.2, -0.3, 0.4,
			math.Copysign(0, -1), math.Copysign(0, -1), 0, 0,
			math.Copysign(0, -1), 0,
		})
	})

	t.Run("specials", func(t *testing.T) {
		checkSinCos(t, []float64{
			math.Inf(1), math.Inf(-1), math.NaN(),
			1, -1, math.Pi, -math.Pi, 100, -100, 1e9, 1e18,
		})
	})

	t.Run("raw-bits", func(t *testing.T) {
		// Raw patterns: every exponent, so mostly fallback groups, and
		// NaN payloads.
		rnd := rand.New(rand.NewSource(77))
		src := make([]float64, 1<<14)
		for i := range src {
			src[i] = math.Float64frombits(rnd.Uint64())
		}
		checkSinCos(t, src)
		// Raw mantissas and signs with exponents below 2^29, so whole
		// groups stay on the vector path.
		for i := range src {
			bits := rnd.Uint64() &^ (0x7FF << 52)
			bits |= uint64(rnd.Intn(1023+29)) << 52
			src[i] = math.Float64frombits(bits)
		}
		checkSinCos(t, src)
	})

	t.Run("mixed-forces-fallback", func(t *testing.T) {
		src := uniform(72, 513, 0.7)
		src[97] = 2.5
		src[98] = math.NaN()
		src[200] = math.Copysign(0, -1)
		src[300] = 1 << 29
		src[511] = math.Inf(1)
		checkSinCos(t, src)
	})

	t.Run("short-slices", func(t *testing.T) {
		for n := 0; n <= 9; n++ {
			src := make([]float64, n)
			for i := range src {
				src[i] = float64(i)*0.09 - 0.3
			}
			checkSinCos(t, src)
		}
	})
}

func TestSinCosSliceDstShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SinCosSlice with short dst did not panic")
		}
	}()
	SinCosSlice(make([]float64, 3), make([]float64, 4), make([]float64, 4))
}

// sinCosSeed packs values into a FuzzSinCosSlice input.
func sinCosSeed(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// FuzzSinCosSlice reads 1–12 float64 values from raw input bits, so
// NaN payloads, ±Inf, subnormals, ±0 and |x| ≥ 2^29 all occur, and
// checks every SinCosSlice result against math.Sin / math.Cos bit for
// bit (any NaN matches any NaN), on the host's path and with the vector
// kernel switched off.
func FuzzSinCosSlice(f *testing.F) {
	lim := float64(1 << 29)
	q := math.Pi / 4
	f.Add(sinCosSeed(q, -q, 2*q, 3*q, 4*q, 5*q, 6*q, 7*q, 8*q, -3*q, -5*q, -7*q))
	f.Add(sinCosSeed(math.Nextafter(q, 0), math.Nextafter(3*q, 0), math.Nextafter(3*q, 4), math.Nextafter(-5*q, 0)))
	f.Add(sinCosSeed(0, math.Copysign(0, -1), 0, math.Copysign(0, -1), math.Copysign(0, -1)))
	f.Add(sinCosSeed(math.Nextafter(lim, 0), lim, math.Nextafter(lim, math.Inf(1)), -math.Nextafter(lim, 0)))
	f.Add(sinCosSeed(0.1, -2.5, 7, 1e-310, 0.3, math.NaN(), math.Inf(-1), lim, -9, 3, 1e300, -0.7))
	f.Add([]byte{1})

	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(max(len(data)/8, 1), 12)
		buf := make([]byte, 8*n)
		copy(buf, data)
		src := make([]float64, n)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		check := func(path string) {
			sinDst := make([]float64, n)
			cosDst := make([]float64, n)
			SinCosSlice(sinDst, cosDst, src)
			for i, x := range src {
				if !sameFloat(sinDst[i], math.Sin(x)) || !sameFloat(cosDst[i], math.Cos(x)) {
					t.Fatalf("%s path, lane %d of %d: x = %v (bits %016x): got sin %v cos %v, math gives %v %v",
						path, i, n, x, math.Float64bits(x), sinDst[i], cosDst[i], math.Sin(x), math.Cos(x))
				}
			}
		}
		check("host")
		forceScalar(t)
		check("scalar")
	})
}

// sameFloat is bit equality, except that any NaN matches any NaN.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// benchSinCos times fn over 256 values uniform in ±r: r = 0.2 is the
// cartpole pole-angle band, r = 3π covers acrobot's angles and their
// π/2 shifts.
func benchSinCos(b *testing.B, fn func(sinDst, cosDst, src []float64)) {
	for _, c := range []struct {
		name string
		r    float64
	}{{"window", 0.2}, {"acrobot", 3 * math.Pi}} {
		b.Run(c.name, func(b *testing.B) {
			src := make([]float64, 256)
			sinDst := make([]float64, 256)
			cosDst := make([]float64, 256)
			rnd := rand.New(rand.NewSource(9))
			for i := range src {
				src[i] = (rnd.Float64()*2 - 1) * c.r
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(sinDst, cosDst, src)
			}
		})
	}
}

func BenchmarkSinCosSlice(b *testing.B) { benchSinCos(b, SinCosSlice) }

func BenchmarkSinCosScalarLoop(b *testing.B) {
	benchSinCos(b, func(sinDst, cosDst, src []float64) {
		for j, x := range src {
			sinDst[j] = math.Sin(x)
			cosDst[j] = math.Cos(x)
		}
	})
}

// TestAcrobotStepDeclines pins AcrobotStep's decline contract: a group
// with a trig argument outside the window, first or in a later RK4
// stage, is marked Declined and left exactly as it was, its lanes'
// plane entries included, and a group beside it inside the window is
// stepped; with the vector kernel off every group is declined.
// FuzzAcrobotStep (env) pins the stepped lanes against the scalar Step.
func TestAcrobotStepDeclines(t *testing.T) {
	check := func(t *testing.T, stepped bool) {
		t.Helper()
		const lanes = 12
		groups := make([]AcrobotGroup, 3)
		for i := range groups {
			for l := range 4 {
				g := &groups[i]
				g.Th1[l], g.Th2[l], g.Dth2[l] = 0.1*float64(l), -0.2, 0.5
			}
		}
		groups[0].Th2[2] = math.NaN() // the first stage's θ2
		groups[2].Dth1[1] = 1 << 40   // the second stage's θ1 = θ1 + 0.1·θ1'
		obs, rewards, done, actions := stepPlanes(6, 1, lanes)
		for i := range actions {
			actions[i] = 1
		}
		before := append([]AcrobotGroup(nil), groups...)
		AcrobotStep(groups, obs, rewards, done, actions, lanes, lanes)
		checkDeclines(t, groups, before, obs, rewards, done, lanes, stepped, func(g *AcrobotGroup) *bool { return &g.Declined })
	}
	check(t, HaveVec)
	t.Run("scalar-path", func(t *testing.T) {
		forceScalar(t)
		check(t, false)
	})
}

// stepPlanes returns the planes of a step over lanes lanes of obsRows
// observation and actRows action rows, every observation and reward
// set to a NaN no step writes.
func stepPlanes(obsRows, actRows, lanes int) (obs, rewards []float64, done []bool, actions []float64) {
	obs = make([]float64, obsRows*lanes)
	rewards = make([]float64, lanes)
	for _, p := range [][]float64{obs, rewards} {
		for i := range p {
			p[i] = math.Float64frombits(0x7FF0DEAD0000BEEF)
		}
	}
	return obs, rewards, make([]bool, lanes), make([]float64, actRows*lanes)
}

// checkDeclines fails unless group 1 alone was stepped (when stepped),
// writing its lanes' plane entries, and every other group was declined
// and left as it was, with its lanes' plane entries unwritten.
func checkDeclines[G any](t *testing.T, groups, before []G, obs, rewards []float64, done []bool, stride int, stepped bool, declined func(*G) *bool) {
	t.Helper()
	for i := range groups {
		want := before[i]
		*declined(&want) = *declined(&groups[i])
		unchanged := fmt.Sprint(groups[i]) == fmt.Sprint(want)
		written := false
		for l := 4 * i; l < 4*i+4; l++ {
			written = written || done[l] || !math.IsNaN(rewards[l])
			for r := 0; r < len(obs)/stride; r++ {
				written = written || math.Float64bits(obs[r*stride+l]) != 0x7FF0DEAD0000BEEF
			}
		}
		if i != 1 || !stepped {
			if !*declined(&groups[i]) || !unchanged || written {
				t.Fatalf("group %d: Declined %v, unchanged %v, planes written %v; want a declined group left as it was",
					i, *declined(&groups[i]), unchanged, written)
			}
		} else if *declined(&groups[i]) || unchanged || !written {
			t.Fatalf("group %d: Declined %v, unchanged %v, planes written %v; want it stepped", i, *declined(&groups[i]), unchanged, written)
		}
	}
}

// TestMountainCarAndLunarLanderStepDecline pins the decline contract of
// the other two step kernels as TestAcrobotStepDeclines does
// AcrobotStep's: a NaN position (MountainCar's cos(3·pos)) or attitude
// (LunarLander's sine and cosine) in one active lane declines its group
// unwritten while the group beside it steps; a NaN in an inactive lane
// declines nothing; with the vector kernel off every group is declined.
func TestMountainCarAndLunarLanderStepDecline(t *testing.T) {
	const lanes = 12
	mc := func(t *testing.T, stepped bool) {
		t.Helper()
		groups := make([]MountainCarGroup, 4) // the fourth holds only inactive lanes
		for i := range groups {
			for l := range 4 {
				groups[i].Pos[l], groups[i].MaxPos[l] = -0.5+0.01*float64(l), -1.2
			}
		}
		groups[0].Pos[3] = math.NaN()
		groups[2].Pos[1] = math.Inf(1)
		groups[3].Pos[0] = math.NaN()
		obs, rewards, done, actions := stepPlanes(2, 3, lanes)
		before := append([]MountainCarGroup(nil), groups...)
		MountainCarStep(groups[:3], obs, rewards, done, actions, lanes, lanes)
		checkDeclines(t, groups[:3], before, obs, rewards, done, lanes, stepped, func(g *MountainCarGroup) *bool { return &g.Declined })
		if fmt.Sprint(groups[3]) != fmt.Sprint(before[3]) {
			t.Fatal("a group past the active lanes was written")
		}
	}
	ll := func(t *testing.T, stepped bool) {
		t.Helper()
		groups := make([]LunarLanderGroup, 3)
		for i := range groups {
			for l := range 4 {
				g := &groups[i]
				g.Y[l], g.Angle[l], g.VA[l] = 1, 0.05*float64(l), 0.1
			}
		}
		groups[0].Angle[0] = math.NaN()
		groups[2].Angle[2] = 1 << 30
		obs, rewards, done, actions := stepPlanes(8, 4, lanes)
		before := append([]LunarLanderGroup(nil), groups...)
		LunarLanderStep(groups, obs, rewards, done, actions, lanes, lanes)
		checkDeclines(t, groups, before, obs, rewards, done, lanes, stepped, func(g *LunarLanderGroup) *bool { return &g.Declined })

		// Lanes 9–11 inactive: group 2's out-of-window lane 10 is
		// ignored, and its one active lane steps.
		groups = append(groups[:0], before...)
		obs, rewards, done, actions = stepPlanes(8, 4, lanes)
		LunarLanderStep(groups, obs, rewards, done, actions, lanes, 9)
		if groups[2].Declined == stepped || (stepped && math.IsNaN(rewards[8])) || !math.IsNaN(rewards[9]) {
			t.Fatalf("group 2 with one active lane: Declined %v, rewards %v", groups[2].Declined, rewards[8:])
		}
	}
	for _, c := range []struct {
		name string
		fn   func(*testing.T, bool)
	}{{"mountaincar", mc}, {"lunarlander", ll}} {
		t.Run(c.name, func(t *testing.T) { c.fn(t, HaveVec) })
		t.Run(c.name+"/scalar-path", func(t *testing.T) {
			forceScalar(t)
			c.fn(t, false)
		})
	}
}

// TestStepPlanesPanic pins the step kernels' plane checks: a lane count
// past the groups or the stride, or a plane shorter than its lanes'
// rows, panics before anything is written.
func TestStepPlanesPanic(t *testing.T) {
	for _, c := range []struct {
		name                 string
		groups, stride, act  int
		obs, rew, done, acts int
	}{
		{"active-past-groups", 1, 8, 5, 16, 8, 8, 24},
		{"active-past-stride", 2, 4, 5, 16, 8, 8, 24},
		{"active-negative", 1, 4, -1, 8, 4, 4, 12},
		{"obs-short", 1, 4, 4, 7, 4, 4, 12},
		{"actions-short", 1, 4, 4, 8, 4, 4, 11},
		{"rewards-short", 1, 4, 4, 8, 3, 4, 12},
		{"done-short", 1, 4, 4, 8, 4, 3, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			MountainCarStep(make([]MountainCarGroup, c.groups), make([]float64, c.obs), make([]float64, c.rew),
				make([]bool, c.done), make([]float64, c.acts), c.stride, c.act)
		})
	}
}
