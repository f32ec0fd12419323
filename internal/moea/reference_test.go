package moea

// The Deb et al. (2002) fast non-dominated sort the ENS-SS kernel in
// Sort replaced, kept for the differential test and the reference
// benchmark.

// ReferenceSort is the retained slow reference: the textbook O(M·N²)
// fast non-dominated sort of Deb et al. (2002), kept as the executable
// specification the kernel is differentially pinned against
// (TestSortMatchesReference). Identical output to Sort.
func ReferenceSort(points []Point, objectives []Objective) Result {
	if err := Validate(points, objectives); err != nil {
		panic(err)
	}
	vals := minimized(points, objectives)
	n := len(points)

	// S[p]: the set of points p dominates. domCount[p]: how many
	// points dominate p.
	dominated := make([][]int, n)
	domCount := make([]int, n)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if p == q {
				continue
			}
			if dominates(vals[p], vals[q]) {
				dominated[p] = append(dominated[p], q)
			} else if dominates(vals[q], vals[p]) {
				domCount[p]++
			}
		}
	}

	rank := make([]int, n)
	var fronts [][]int
	var current []int
	for p := 0; p < n; p++ {
		if domCount[p] == 0 {
			rank[p] = 0
			current = append(current, p)
		}
	}
	for len(current) > 0 {
		fronts = append(fronts, current)
		var next []int
		for _, p := range current {
			for _, q := range dominated[p] {
				domCount[q]--
				if domCount[q] == 0 {
					rank[q] = len(fronts)
					next = append(next, q)
				}
			}
		}
		current = next
	}

	return assemble(points, vals, rank, fronts)
}
