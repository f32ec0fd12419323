package moea

import (
	"math/rand"
	"testing"
)

// benchPoints is sized to the paper-scale RAM population (150) with a
// realistic three-axis objective vector.
func benchPoints(n int) []Point {
	rng := rand.New(rand.NewSource(42))
	return randomPoints(rng, n)
}

// BenchmarkNonDominatedSort measures the production ENS-SS kernel —
// the per-generation selection cost of a Pareto-mode run.
func BenchmarkNonDominatedSort(b *testing.B) {
	pts := benchPoints(150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sort(pts, testObjectives)
	}
}

// BenchmarkNonDominatedSortReference measures the retained O(MN²)
// reference; its time over BenchmarkNonDominatedSort's is the kernel's
// speedup.
func BenchmarkNonDominatedSortReference(b *testing.B) {
	pts := benchPoints(150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReferenceSort(pts, testObjectives)
	}
}
