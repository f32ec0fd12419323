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
// stage, is marked Declined and left exactly as it was, and a group
// beside it inside the window is stepped; with the vector kernel off
// every group is declined. FuzzAcrobotStep (env) pins the stepped
// lanes against the scalar Step.
func TestAcrobotStepDeclines(t *testing.T) {
	check := func(t *testing.T, stepped bool) {
		t.Helper()
		groups := make([]AcrobotGroup, 3)
		for i := range groups {
			for l := range 4 {
				g := &groups[i]
				g.Th1[l], g.Th2[l], g.Dth2[l], g.Torque[l] = 0.1*float64(l), -0.2, 0.5, 1
			}
		}
		groups[0].Th2[2] = math.NaN() // the first stage's θ2
		groups[2].Dth1[1] = 1 << 40   // the second stage's θ1 = θ1 + 0.1·θ1'
		before := append([]AcrobotGroup(nil), groups...)
		AcrobotStep(groups)
		for i, g := range groups {
			want := before[i]
			want.Declined = g.Declined
			unchanged := fmt.Sprint(g) == fmt.Sprint(want)
			if i != 1 || !stepped {
				if !g.Declined || !unchanged {
					t.Fatalf("group %d: Declined %v, unchanged %v; want a declined group left as it was", i, g.Declined, unchanged)
				}
			} else if g.Declined || unchanged {
				t.Fatalf("group %d: Declined %v, unchanged %v; want it stepped", i, g.Declined, unchanged)
			}
		}
	}
	check(t, HaveVec)
	t.Run("scalar-path", func(t *testing.T) {
		forceScalar(t)
		check(t, false)
	})
}
