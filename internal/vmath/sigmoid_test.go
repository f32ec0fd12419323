package vmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// layer is a set of sum-aggregated sigmoid vertices in the CSR,
// lane-major layout a SigmoidLayer reads: the plane holds nsrc source rows,
// then one row per vertex, each stride lanes wide, with bias and
// response planes of the same shape. Vertex p's fan-in edges are k in
// [off[p], off[p+1]), each reading row src[k] through weight row k.
type layer struct {
	stride, nsrc        int
	vals, w, bias, resp []float64
	off, src, rows      []int32
}

// newLayer builds a layer with one vertex per entry of fanIns. Edges
// read the source rows in descending order, so edge order is not row
// order, and rows lists the vertices last to first. Every value is +0.
func newLayer(stride, nsrc int, fanIns ...int) *layer {
	total := nsrc + len(fanIns)
	ly := &layer{
		stride: stride,
		nsrc:   nsrc,
		vals:   make([]float64, total*stride),
		bias:   make([]float64, total*stride),
		resp:   make([]float64, total*stride),
		off:    make([]int32, total+1),
	}
	for i, f := range fanIns {
		p := nsrc + i
		for k := 0; k < f; k++ {
			ly.src = append(ly.src, int32(nsrc-1-k%nsrc))
		}
		ly.off[p+1] = int32(len(ly.src))
		ly.rows = append([]int32{int32(p)}, ly.rows...)
	}
	ly.w = make([]float64, len(ly.src)*stride)
	return ly
}

// fill sets every lane of the source rows, the weights and the
// vertices' bias and response rows from gen.
func (ly *layer) fill(gen func() float64) {
	s := ly.nsrc * ly.stride
	for _, row := range [][]float64{ly.vals[:s], ly.w, ly.bias[s:], ly.resp[s:]} {
		for i := range row {
			row[i] = gen()
		}
	}
}

// ref is the scalar sigmoid vertex p at lane l, as the network
// evaluator computes it: the fan-in summed in edge order from +0, then
// bias + resp·acc, then the clamped, scaled sigmoid.
func (ly *layer) ref(p, l int) float64 {
	var acc float64
	for k := ly.off[p]; k < ly.off[p+1]; k++ {
		acc += ly.vals[int(ly.src[k])*ly.stride+l] * ly.w[int(k)*ly.stride+l]
	}
	r := p*ly.stride + l
	x := 5 * (ly.bias[r] + ly.resp[r]*acc)
	if x > 60 {
		x = 60
	} else if x < -60 {
		x = -60
	}
	return 1 / (1 + math.Exp(-x))
}

// guardBits marks the lanes of the vertex rows before the call, and the
// lanes past the plane.
const guardBits = 0x7FF8DEADBEEF0001

// checkLayer evaluates ly as a SigmoidLayer over lanes [0, n), with the vertex
// rows and 4 lanes past the plane set to guardBits. It fails on the
// first lane whose bits differ from ref (any NaN matches any NaN), on
// any change to a source row, and on any write outside the lanes
// Eval may touch: [0, n) of each vertex row and the pad lanes of
// its last whole 4-lane group inside the row.
func checkLayer(t *testing.T, ly *layer, n int) {
	t.Helper()
	const guard = 4
	s := ly.nsrc * ly.stride
	buf := make([]float64, len(ly.vals)+guard)
	copy(buf, ly.vals[:s])
	for i := s; i < len(buf); i++ {
		buf[i] = math.Float64frombits(guardBits)
	}
	vals := buf[:len(ly.vals):len(ly.vals)]
	sl := NewSigmoidLayer(ly.off, ly.src, ly.rows, ly.stride)
	sl.Eval(vals, ly.w, ly.bias, ly.resp, n)
	writable := max(n, min((n+3)&^3, ly.stride&^3))
	for i, x := range buf {
		p, l := i/ly.stride, i%ly.stride
		switch {
		case i < s:
			if math.Float64bits(x) != math.Float64bits(ly.vals[i]) {
				t.Fatalf("source row %d lane %d changed", p, l)
			}
		case i < len(vals) && l < n:
			if want := ly.ref(p, l); !sameFloat(x, want) {
				t.Fatalf("width %d, %d active, vertex %d (fan-in %d), lane %d: got %v (bits %016x), scalar %v (bits %016x)",
					ly.stride, n, p, ly.off[p+1]-ly.off[p], l, x, math.Float64bits(x), want, math.Float64bits(want))
			}
		case (i >= len(vals) || l >= writable) && math.Float64bits(x) != guardBits:
			t.Fatalf("width %d, %d active: lane %d of row %d written (writable lanes end at %d)", ly.stride, n, l, p, writable)
		}
	}
}

// checkAllActive runs checkLayer for every active count of ly's width.
func checkAllActive(t *testing.T, ly *layer) {
	t.Helper()
	for n := 0; n <= ly.stride; n++ {
		checkLayer(t, ly, n)
	}
}

// TestSigmoidRowsBitIdentical pins SigmoidLayer.Eval to the scalar sigmoid
// vertex lane for lane and bit for bit on every input class: random
// finite layers of 1, 2, 3 and 5 vertices (odd task counts leave a task
// without a partner) at widths 4, 6, 8 and 64 with every active count
// (width 6 shows nothing is written past a row), a dense sweep of the
// clamped exp range and random points of it, 5·pre at ±60 and one ulp either side, signed
// zeros (the accumulator starts at +0), zero fan-in, subnormals, ±Inf
// and NaN in every input (a NaN pair falls back to the scalar path),
// and NaN in pad lanes. The "scalar-path" subtest repeats every class
// with the vector kernel switched off, so the fallback is pinned on any
// host.
func TestSigmoidRowsBitIdentical(t *testing.T) {
	t.Logf("vector kernel enabled: %v", HaveVec)
	sigmoidClasses(t)
	t.Run("scalar-path", func(t *testing.T) {
		forceScalar(t)
		sigmoidClasses(t)
	})
}

func sigmoidClasses(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(81))
		for _, stride := range []int{4, 6, 8, 64} {
			for _, fanIns := range [][]int{{3}, {0}, {2, 5}, {1, 0, 7}, {24, 3, 0, 2, 9}} {
				ly := newLayer(stride, 6, fanIns...)
				for i := range ly.vals {
					ly.vals[i] = rnd.Float64()*4 - 2
				}
				for i := range ly.w {
					ly.w[i] = rnd.NormFloat64() * 2
				}
				for i := range ly.bias {
					ly.bias[i] = rnd.NormFloat64()
					ly.resp[i] = 0.5 + rnd.Float64()
				}
				checkAllActive(t, ly)
			}
		}
	})

	t.Run("clamp-range", func(t *testing.T) {
		// 5·pre swept densely over ±61, 64 lanes a call, through the
		// bias of a vertex with no fan-in and through the weight of a
		// vertex with one edge (its value 1, its bias 0): every exp
		// argument the clamp lets through, and the reciprocal of every
		// exp result.
		ly := newLayer(64, 1, 0, 1)
		for i := range ly.vals[:64] {
			ly.vals[i] = 1
		}
		for i := range ly.resp {
			ly.resp[i] = 1
		}
		bias := ly.bias[64:128]
		x, l := -61.0, 0
		for x <= 61 {
			bias[l], ly.w[l] = x/5, x/5
			x += 0.0025
			if l++; l == 64 || x > 61 {
				checkLayer(t, ly, l)
				l = 0
			}
		}
	})

	t.Run("exp-range", func(t *testing.T) {
		// 2^14 exp arguments drawn uniformly from ±60, through the bias
		// of four vertices with no fan-in: exp at random points of the
		// clamped range, off the sweep's grid, and the reciprocal of 1
		// plus each result.
		rnd := rand.New(rand.NewSource(85))
		ly := newLayer(64, 0, 0, 0, 0, 0)
		for i := range ly.resp {
			ly.resp[i] = 1
		}
		for call := 0; call < 1<<14/len(ly.bias); call++ {
			for i := range ly.bias {
				ly.bias[i] = (rnd.Float64()*2 - 1) * 12
			}
			checkLayer(t, ly, 64)
		}
	})

	t.Run("clamp-boundaries", func(t *testing.T) {
		// Biases within 8 ulps of ±12 put 5·pre on ±60 and on the
		// floats either side of it.
		ly := newLayer(64, 1, 0)
		bias, resp := ly.bias[64:], ly.resp[64:]
		hit := map[float64]bool{}
		l := 0
		for _, c := range []float64{12, -12} {
			b := c
			for i := 0; i < 8; i++ {
				b = math.Nextafter(b, 0)
			}
			for i := 0; i < 17; i++ {
				bias[l], resp[l] = b, 1
				hit[5*b] = true
				b = math.Nextafter(b, math.Copysign(math.Inf(1), c))
				l++
			}
		}
		for _, want := range []float64{60, -60} {
			for _, x := range []float64{want, math.Nextafter(want, 0), math.Nextafter(want, 2*want)} {
				if !hit[x] {
					t.Fatalf("boundary sweep misses 5·pre = %v", x)
				}
			}
		}
		checkLayer(t, ly, l)
	})

	t.Run("signed-zeros", func(t *testing.T) {
		// Lane l takes its signs from the bits of l: both edges' value
		// and weight, the bias and the response are ±0. A second pass
		// puts ±1.5 on the first edge's value, so a ±0 product meets a
		// nonzero sum.
		sign := func(l, bit int, mag float64) float64 {
			if l>>bit&1 != 0 {
				return math.Copysign(mag, -1)
			}
			return mag
		}
		for _, first := range []float64{0, 1.5} {
			ly := newLayer(64, 2, 2)
			for l := 0; l < 64; l++ {
				ly.vals[int(ly.src[0])*64+l] = sign(l, 0, first)
				ly.w[0*64+l] = sign(l, 1, 0)
				ly.vals[int(ly.src[1])*64+l] = sign(l, 2, 0)
				ly.w[1*64+l] = sign(l, 3, 0)
				ly.bias[2*64+l] = sign(l, 4, 0)
				ly.resp[2*64+l] = sign(l, 5, 0)
			}
			checkAllActive(t, ly)
		}
	})

	t.Run("zero-fan-in", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(82))
		for _, stride := range []int{4, 6, 8, 64} {
			ly := newLayer(stride, 0, 0, 0, 0)
			for i := range ly.bias {
				ly.bias[i] = rnd.NormFloat64() * 4
				ly.resp[i] = rnd.NormFloat64()
			}
			checkAllActive(t, ly)
		}
	})

	t.Run("subnormals", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(83))
		ly := newLayer(64, 3, 3, 2)
		ly.fill(func() float64 {
			bits := rnd.Uint64() & (1<<52 - 1) // exponent field 0
			return math.Float64frombits(bits | rnd.Uint64()&(1<<63))
		})
		checkAllActive(t, ly)
		// Subnormal values against large weights, so products are
		// normal again.
		for i := range ly.w {
			ly.w[i] = 1e300 * (rnd.Float64() - 0.5)
		}
		checkAllActive(t, ly)
	})

	t.Run("specials", func(t *testing.T) {
		// ±Inf and NaN in every fifth lane of one input in turn; every
		// other lane is finite. Pairs with a NaN exp argument (NaN
		// inputs, or Inf·0 and Inf−Inf) fall back; Inf sums clamp.
		rnd := rand.New(rand.NewSource(84))
		specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7FF0000000000001)}
		for input := 0; input < 4; input++ {
			for _, x := range specials {
				ly := newLayer(64, 2, 2, 1)
				ly.fill(func() float64 { return rnd.Float64()*2 - 1 })
				rows := [][]float64{ly.vals[64:128], ly.w, ly.bias[2*64 : 3*64], ly.resp[3*64:]}
				for l := 0; l < 64; l += 5 {
					rows[input][l] = x
				}
				checkAllActive(t, ly)
			}
		}
		ly := newLayer(8, 2, 2)
		ly.fill(func() float64 { return 1 })
		// Edge 0 reads row 1, edge 1 row 0.
		ly.vals[1*8+1], ly.vals[0*8+1] = math.Inf(1), math.Inf(1) // Inf+Inf
		ly.w[0*8+2], ly.w[1*8+2] = math.Inf(1), math.Inf(-1)      // Inf−Inf: NaN
		ly.vals[1*8+5], ly.w[0*8+5] = math.Inf(-1), 0             // −Inf·0: NaN
		checkAllActive(t, ly)
	})

	t.Run("kernel-takes-every-task", func(t *testing.T) {
		// With no NaN anywhere the kernel finishes every task, an odd
		// count's last one included: 1–3 vertices of 1, 2 or 3 whole
		// groups.
		for nv := 1; nv <= 3; nv++ {
			for _, n := range []int{4, 8, 11} {
				ly := newLayer(12, 2, make([]int, nv)...)
				ly.fill(func() float64 { return 0.5 })
				want := 0
				if HaveVec {
					want = nv * ((n + 3) / 4)
				}
				vals := append([]float64(nil), ly.vals...)
				if got := sigmoidRowsAccel(vals, ly.w, ly.bias, ly.resp, ly.off, ly.src, ly.rows, 12, (n+3)&^3); got != want {
					t.Fatalf("%d vertices, %d lanes: kernel finished %d tasks, want %d", nv, n, got, want)
				}
				checkAllActive(t, ly)
			}
		}
	})

	t.Run("nan-declines-pair", func(t *testing.T) {
		// Three vertices of four groups each are tasks 0–11, row by row
		// in rows order. A NaN bias in lane 9 or lane 13 of the second
		// row is task 6 or task 7, so the kernel stops before the pair
		// of tasks 6 and 7 either way.
		for _, lane := range []int{9, 13} {
			ly := newLayer(16, 2, 2, 2, 2)
			ly.fill(func() float64 { return 0.25 })
			ly.bias[int(ly.rows[1])*16+lane] = math.NaN()
			want := 0
			if HaveVec {
				want = 6
			}
			vals := append([]float64(nil), ly.vals...)
			if got := sigmoidRowsAccel(vals, ly.w, ly.bias, ly.resp, ly.off, ly.src, ly.rows, 16, 16); got != want {
				t.Fatalf("NaN in lane %d: kernel finished %d tasks, want %d", lane, got, want)
			}
			checkAllActive(t, ly)
		}
	})

	t.Run("nan-pad-lanes", func(t *testing.T) {
		// Pad lanes past the active count but inside the last group
		// hold NaN: the group's pair declines and its active lanes fall
		// back.
		for _, c := range []struct{ stride, n int }{{4, 3}, {8, 5}, {8, 6}, {64, 61}} {
			ly := newLayer(c.stride, 2, 2, 1)
			ly.fill(func() float64 { return 0.5 })
			for l := c.n; l < c.stride; l++ {
				ly.vals[c.stride+l] = math.NaN()
				ly.bias[3*c.stride+l] = math.NaN()
			}
			checkLayer(t, ly, c.n)
		}
	})
}

// TestSigmoidRowsPanics: a SigmoidLayer refuses, on every path, a lane
// count outside the row and any vertex, edge range or source row that
// lies outside its slice for the whole rows it reads or writes, the pad
// lanes of a row's last group included. NewSigmoidLayer rejects
// the malformed structures and Eval the short planes and lane counts.
func TestSigmoidRowsPanics(t *testing.T) {
	for _, path := range []string{"host", "scalar"} {
		if path == "scalar" {
			forceScalar(t)
		}
		for _, c := range []struct {
			name string
			edit func(ly *layer, n *int)
		}{
			{"n-past-width", func(ly *layer, n *int) { *n = 9 }},
			{"n-negative", func(ly *layer, n *int) { *n = -1 }},
			{"vertex-past-off", func(ly *layer, n *int) { ly.off = ly.off[:len(ly.off)-1] }},
			{"vertex-negative", func(ly *layer, n *int) { ly.rows[0] = -1 }},
			{"vals-short", func(ly *layer, n *int) { ly.vals = ly.vals[:len(ly.vals)-1] }},
			{"vals-short-of-pad", func(ly *layer, n *int) { ly.vals, *n = ly.vals[:len(ly.vals)-3], 5 }},
			{"bias-short", func(ly *layer, n *int) { ly.bias = ly.bias[:len(ly.bias)-1] }},
			{"resp-short", func(ly *layer, n *int) { ly.resp = ly.resp[:len(ly.resp)-4] }},
			{"edges-inverted", func(ly *layer, n *int) { ly.off[2] = ly.off[3] + 1 }},
			{"edges-past-src", func(ly *layer, n *int) { ly.src = ly.src[:len(ly.src)-1] }},
			{"w-short", func(ly *layer, n *int) { ly.w = ly.w[:len(ly.w)-1] }},
			{"src-past-vals", func(ly *layer, n *int) { ly.src[1] = 4 }},
			{"src-negative", func(ly *layer, n *int) { ly.src[0] = -1 }},
		} {
			t.Run(path+"/"+c.name, func(t *testing.T) {
				ly := newLayer(8, 2, 2)
				n := 8
				c.edit(ly, &n)
				defer func() {
					if recover() == nil {
						t.Fatal("the SigmoidLayer did not panic")
					}
				}()
				sl := NewSigmoidLayer(ly.off, ly.src, ly.rows, ly.stride)
				sl.Eval(ly.vals, ly.w, ly.bias, ly.resp, n)
			})
		}
	}
}

// sigmoidSeed packs a FuzzSigmoidRows input: the four header bytes,
// then raw float64 lanes.
func sigmoidSeed(width, active, nrows, fanIns byte, xs ...float64) []byte {
	b := append([]byte{width, active, nrows, fanIns}, make([]byte, 8*len(xs))...)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[4+8*i:], math.Float64bits(x))
	}
	return b
}

// FuzzSigmoidRows reads a width of 4–8 lanes, an active count, 1–3
// vertices and each vertex's fan-in of 0–3 (two bits each) from the
// first four bytes, then every lane of the three source rows, the
// weights and the vertices' bias and response from raw bits (missing
// bytes read as 0), so NaN payloads, ±Inf, subnormals and ±0 reach the
// kernel, its clamp and its fallback. Every active lane must match the
// scalar sigmoid vertex bit for bit (any NaN matches any NaN), source
// rows must not change, and no lane past a row's writable lanes may be
// written, on the host's path and with the vector kernel switched off.
func FuzzSigmoidRows(f *testing.F) {
	f.Add(sigmoidSeed(0, 4, 0, 2, 0.5, -1, 2, 0.25, 1, 1, 1, 1, 0.3, -0.2, 0.1, 0.9, 2, 2, 2, 2, 0, 0.5, -0.5, 1, 1, 1, 1, 1))
	f.Add(sigmoidSeed(2, 6, 1, 0, 12, math.Nextafter(12, 13), math.Nextafter(12, 11), -12, math.Nextafter(-12, -13), -12.5))
	f.Add(sigmoidSeed(4, 5, 2, 0x39, 1, 1, 1, 1, 1, math.NaN(), math.NaN(), math.NaN()))
	f.Add(sigmoidSeed(1, 5, 1, 0x0D, math.Inf(1), 0, math.Copysign(0, -1), 1e-310, -1e-310, math.Inf(-1), 0, 0, 1, 1, 1, 1, 1))
	f.Add([]byte{3})

	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [4]byte
		data = data[copy(hdr[:], data):]
		stride := 4 + int(hdr[0]%5)
		fanIns := make([]int, 1+int(hdr[2]%3))
		for i := range fanIns {
			fanIns[i] = int(hdr[3]>>(2*i)) & 3
		}
		ly := newLayer(stride, 3, fanIns...)
		ly.fill(func() float64 {
			var b [8]byte
			data = data[copy(b[:], data):]
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		})
		n := int(hdr[1]) % (stride + 1)
		checkLayer(t, ly, n)
		forceScalar(t)
		checkLayer(t, ly, n)
	})
}
