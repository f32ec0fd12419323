// Package moea implements the NSGA-II selection machinery for
// multi-objective, energy-aware evolution: fast non-dominated sorting,
// crowding-distance assignment and a deterministic total order over a
// pluggable objective vector (task fitness up, genome complexity down,
// simulated chip energy down).
//
// Two sorting implementations share one assembly step:
//
//   - ReferenceSort, in the package's tests, is the textbook O(M·N²)
//     fast-non-dominated-sort (Deb et al. 2002): full pairwise
//     domination sets S[p] and domination counts n[p], fronts peeled
//     one rank at a time. It is the executable specification.
//   - Sort is the production kernel: ENS-SS (Zhang et al. 2015,
//     "efficient non-dominated sort, sequential search"). Points are
//     pre-sorted lexicographically, so a point can only be dominated
//     by points already placed; each point then scans existing fronts
//     front-by-front and lands in the first front containing no
//     dominator. Same ranks, far fewer comparisons on realistic
//     populations.
//
// Both are serial and consume no PRNG state, so the assignment —
// ranks, crowding, total order — is a pure function of the objective
// matrix. Ties are broken by a fixed chain (rank asc, crowding desc,
// point ID asc), which makes the resulting order *total*: two distinct
// points never compare equal, so downstream consumers (selection
// pressure shaping in internal/evolve, front artifacts in
// internal/store) are byte-identical at any Parallelism and lane width.
//
// Crowding uses math.MaxFloat64 — not +Inf — as the boundary-point
// sentinel: it orders identically (interior sums are vastly smaller)
// and, unlike +Inf, survives encoding/json round trips exactly.
package moea

import (
	"fmt"
	"math"
	"sort"
)

// Objective describes one axis of the objective vector.
type Objective struct {
	// Name identifies the objective ("fitness", "genes", "energy").
	Name string
	// Maximize is true when larger raw values are better. Internally
	// every objective is minimized; maximized axes are sign-flipped.
	Maximize bool
}

// Point is one candidate in objective space.
type Point struct {
	// ID is the stable identity used as the final tie-break (genome
	// ID in the evolution loop). IDs must be unique within a sort.
	ID int64
	// Values holds the raw objective values, index-aligned with the
	// []Objective passed to Sort.
	Values []float64
}

// CrowdingMax is the crowding-distance sentinel assigned to the
// boundary points of each front. math.MaxFloat64 rather than +Inf so
// the value survives JSON encoding exactly; interior crowding sums are
// bounded by a few times the per-objective spread ratio (≤ 2·M) and
// never approach it.
const CrowdingMax = math.MaxFloat64

// Result is the full NSGA-II assignment for one population.
type Result struct {
	// Rank[i] is the non-domination front index of points[i] (0 = the
	// Pareto front).
	Rank []int
	// Crowding[i] is the crowding distance of points[i] within its
	// front (CrowdingMax on front boundaries).
	Crowding []float64
	// Fronts[r] lists point indices of rank r, each in total order.
	Fronts [][]int
	// Order lists all point indices in total order: rank ascending,
	// then crowding descending, then ID ascending.
	Order []int
}

// Validate checks that the points form a well-defined sort input:
// at least one objective, value vectors aligned with it, unique IDs,
// and no NaNs (NaN breaks the strict weak ordering every sort here
// relies on).
func Validate(points []Point, objectives []Objective) error {
	if len(objectives) == 0 {
		return fmt.Errorf("moea: empty objective vector")
	}
	seen := make(map[int64]struct{}, len(points))
	for i, p := range points {
		if len(p.Values) != len(objectives) {
			return fmt.Errorf("moea: point %d has %d values for %d objectives", i, len(p.Values), len(objectives))
		}
		for m, v := range p.Values {
			if math.IsNaN(v) {
				return fmt.Errorf("moea: point %d objective %q is NaN", i, objectives[m].Name)
			}
		}
		if _, dup := seen[p.ID]; dup {
			return fmt.Errorf("moea: duplicate point ID %d", p.ID)
		}
		seen[p.ID] = struct{}{}
	}
	return nil
}

// minimized returns the objective matrix with maximized axes
// sign-flipped, so every comparison below is "smaller is better".
func minimized(points []Point, objectives []Objective) [][]float64 {
	vals := make([][]float64, len(points))
	for i, p := range points {
		row := make([]float64, len(objectives))
		for m, o := range objectives {
			if o.Maximize {
				row[m] = -p.Values[m]
			} else {
				row[m] = p.Values[m]
			}
		}
		vals[i] = row
	}
	return vals
}

// dominates reports Pareto dominance on minimized rows: a is no worse
// everywhere and strictly better somewhere.
func dominates(a, b []float64) bool {
	strict := false
	for m := range a {
		if a[m] > b[m] {
			return false
		}
		if a[m] < b[m] {
			strict = true
		}
	}
	return strict
}

// Sort runs the production non-dominated sort kernel (ENS-SS) plus
// crowding assignment and total ordering. The input is not mutated.
// Sort panics on invalid input; call Validate first when the points
// come from outside the evolution loop.
func Sort(points []Point, objectives []Objective) Result {
	if err := Validate(points, objectives); err != nil {
		panic(err)
	}
	vals := minimized(points, objectives)
	n := len(points)
	rank := make([]int, n)

	// Lexicographic pre-sort (value-major, ID as the final key): after
	// this, any dominator of points[order[i]] appears strictly earlier
	// in order, so fronts can be built by insertion.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := vals[order[a]], vals[order[b]]
		for m := range va {
			if va[m] != vb[m] {
				return va[m] < vb[m]
			}
		}
		return points[order[a]].ID < points[order[b]].ID
	})

	// ENS-SS insertion: for each point in lexicographic order, place it
	// into the first front whose members (all lexicographically
	// earlier) do not dominate it. Members are checked newest-first —
	// recently inserted points are the likeliest dominators.
	var fronts [][]int
	for _, i := range order {
		placed := false
		for r := range fronts {
			dominated := false
			members := fronts[r]
			for k := len(members) - 1; k >= 0; k-- {
				if dominates(vals[members[k]], vals[i]) {
					dominated = true
					break
				}
			}
			if !dominated {
				fronts[r] = append(fronts[r], i)
				rank[i] = r
				placed = true
				break
			}
		}
		if !placed {
			fronts = append(fronts, []int{i})
			rank[i] = len(fronts) - 1
		}
	}

	return assemble(points, vals, rank, fronts)
}

// assemble finishes either sort: crowding per front, then the total
// order. Front membership arrives in implementation-specific order and
// is renormalized here, so both implementations emit identical bytes.
func assemble(points []Point, vals [][]float64, rank []int, fronts [][]int) Result {
	crowding := crowdingDistances(points, vals, fronts)

	// Total order: rank asc, crowding desc, ID asc. Because IDs are
	// unique this is a strict total order — no two points tie.
	order := make([]int, 0, len(points))
	for i := range points {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if rank[ia] != rank[ib] {
			return rank[ia] < rank[ib]
		}
		if crowding[ia] != crowding[ib] {
			return crowding[ia] > crowding[ib]
		}
		return points[ia].ID < points[ib].ID
	})

	// Renormalize front membership into total order.
	normFronts := make([][]int, len(fronts))
	for _, i := range order {
		r := rank[i]
		normFronts[r] = append(normFronts[r], i)
	}

	return Result{Rank: rank, Crowding: crowding, Fronts: normFronts, Order: order}
}

// crowdingDistances assigns the NSGA-II crowding distance within each
// front. For every objective the front is sorted by value (ID as the
// deterministic tie-break); boundary points receive CrowdingMax,
// interior points accumulate the normalized neighbour gap. The
// accumulation order is fixed (objective 0, 1, ...), so the float sums
// are bit-reproducible.
func crowdingDistances(points []Point, vals [][]float64, fronts [][]int) []float64 {
	crowding := make([]float64, len(points))
	for _, front := range fronts {
		if len(front) == 0 {
			continue
		}
		byObj := make([]int, len(front))
		boundary := make(map[int]bool, 2)
		for m := range vals[front[0]] {
			copy(byObj, front)
			m := m
			sort.Slice(byObj, func(a, b int) bool {
				if vals[byObj[a]][m] != vals[byObj[b]][m] {
					return vals[byObj[a]][m] < vals[byObj[b]][m]
				}
				return points[byObj[a]].ID < points[byObj[b]].ID
			})
			lo, hi := vals[byObj[0]][m], vals[byObj[len(byObj)-1]][m]
			boundary[byObj[0]] = true
			boundary[byObj[len(byObj)-1]] = true
			if hi == lo {
				continue // degenerate axis: no spread to reward
			}
			span := hi - lo
			for k := 1; k < len(byObj)-1; k++ {
				gap := (vals[byObj[k+1]][m] - vals[byObj[k-1]][m]) / span
				crowding[byObj[k]] += gap
			}
		}
		for i := range boundary {
			crowding[i] = CrowdingMax
		}
	}
	return crowding
}
