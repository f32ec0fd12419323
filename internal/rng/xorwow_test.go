package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("generators with same seed diverged at draw %d", i)
		}
	}
}

// TestMix64KnownValues pins the finalizer to the reference splitmix64:
// its first two outputs from state 0.
func TestMix64KnownValues(t *testing.T) {
	const golden = 0x9E3779B97F4A7C15
	for i, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4} {
		if got := Mix64(golden * uint64(i+1)); got != want {
			t.Fatalf("output %d: %#x, want %#x", i, got, want)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestReseed(t *testing.T) {
	g := New(7)
	first := make([]uint32, 16)
	for i := range first {
		first[i] = g.Uint32()
	}
	g.Seed(7)
	for i := range first {
		if got := g.Uint32(); got != first[i] {
			t.Fatalf("reseeded stream diverged at %d: %d vs %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(3)
	for i := 0; i < 100000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	g := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestByteCoverage(t *testing.T) {
	g := New(5)
	var seen [256]bool
	for i := 0; i < 100000; i++ {
		seen[g.Byte()] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("byte value %d never produced in 100k draws", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	g := New(9)
	for _, n := range []int{1, 2, 3, 10, 150, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := g.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	g := New(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(21)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint32() == child.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream tracks parent: %d/100 identical", same)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(17)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := g.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBoolProbability(t *testing.T) {
	g := New(23)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
}

func TestRangeBounds(t *testing.T) {
	g := New(29)
	for i := 0; i < 10000; i++ {
		v := g.Range(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Range(-3,5) = %v", v)
		}
	}
}

// Property: any seed produces a generator whose first 64 bytes are not all
// identical (stream is alive) and Float64 stays in range.
func TestQuickSeedLiveness(t *testing.T) {
	f := func(seed uint64) bool {
		g := New(seed)
		first := g.Byte()
		varied := false
		for i := 0; i < 63; i++ {
			if g.Byte() != first {
				varied = true
			}
		}
		fv := g.Float64()
		return varied && fv >= 0 && fv < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn(n) is always within bounds for positive n.
func TestQuickIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		g := New(seed)
		for i := 0; i < 32; i++ {
			v := g.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint32(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		_ = g.Uint32()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		_ = g.NormFloat64()
	}
}
