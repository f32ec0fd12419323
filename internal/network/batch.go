package network

import (
	"fmt"

	"repro/internal/gene"
	"repro/internal/vmath"
)

// Program is an exported handle to one compiled, immutable phenotype
// program. It is what the batch engine schedules: the evolve layer
// fetches Programs from the Cache (no per-evaluation instance
// allocation), groups them by topology, and loads same-topology
// Programs into the lanes of one BatchProgram. The zero Program is
// invalid; check IsZero before use.
type Program struct {
	p *program
}

// IsZero reports whether the handle is empty (not compiled).
func (pr Program) IsZero() bool { return pr.p == nil }

// NumInputs returns the observation width the program expects.
func (pr Program) NumInputs() int { return pr.p.numIn }

// NumOutputs returns the action width the program produces.
func (pr Program) NumOutputs() int { return pr.p.numOut }

// Instantiate wraps the program with fresh scalar evaluation state —
// the same Network the serial path has always used.
func (pr Program) Instantiate() *Network { return pr.p.instantiate() }

// TopoKey returns a hash of the program's evaluation structure: vertex
// count, CSR fan-in shape, IO positions, schedule, and per-vertex
// activation/aggregation ids — everything except the per-genome
// parameters (weights, bias, response) and node ids. Two programs with
// equal TopoKeys are candidates for sharing one BatchProgram; confirm
// with SameTopology (keys can collide, topology equality cannot).
func (pr Program) TopoKey() uint64 { return pr.p.topoHash }

// SameTopology reports whether two programs share evaluation structure
// exactly, lane-compatibility for one BatchProgram.
func (pr Program) SameTopology(o Program) bool { return sameTopology(pr.p, o.p) }

func sameTopology(a, b *program) bool {
	if a == b {
		return true
	}
	if a.topoHash != b.topoHash ||
		len(a.ids) != len(b.ids) || a.macs != b.macs ||
		a.numIn != b.numIn || a.numOut != b.numOut ||
		len(a.evalPos) != len(b.evalPos) || len(a.layerEnd) != len(b.layerEnd) {
		return false
	}
	eq32 := func(x, y []int32) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eq32(a.edgeOff, b.edgeOff) || !eq32(a.edgePos, b.edgePos) ||
		!eq32(a.evalPos, b.evalPos) || !eq32(a.layerEnd, b.layerEnd) {
		return false
	}
	for i := range a.act {
		if a.act[i] != b.act[i] || a.agg[i] != b.agg[i] {
			return false
		}
	}
	return true
}

// topoHashOf computes the FNV-1a-style structural hash stored in every
// compiled program. Word-wise rather than byte-wise: collisions are
// tolerated (SameTopology confirms), speed matters (every compile pays
// this).
func topoHashOf(p *program) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	mix(uint64(len(p.ids)))
	mix(uint64(p.macs))
	mix32 := func(s []int32) {
		mix(uint64(len(s)))
		for _, v := range s {
			mix(uint64(uint32(v)))
		}
	}
	mix32(p.edgeOff)
	mix32(p.edgePos)
	mix(uint64(p.numIn))
	mix(uint64(p.numOut))
	mix32(p.evalPos)
	mix32(p.layerEnd)
	for i := range p.act {
		mix(uint64(p.act[i])<<8 | uint64(p.agg[i]))
	}
	return h
}

// BatchProgram evaluates up to Width lanes — same-topology phenotypes,
// independent parameters — in lock-step. Structure (CSR fan-in, eval
// schedule, activation ids) is shared across lanes; parameters live in
// struct-of-arrays planes, one contiguous [thing][lane] row per weight,
// bias, and response, so the inner loop streams each plane once per
// vertex while amortizing all index arithmetic over the whole batch.
//
// Lanes are mutable: SetLane loads a different same-topology program
// into one lane (the backfill operation of the evolve scheduler) and
// SwapLanes reorders lanes (retiring a finished episode out of the
// active prefix). A BatchProgram is not safe for concurrent use.
type BatchProgram struct {
	p      *program // structural exemplar; its params are NOT read
	width  int      // allocated lanes == plane stride
	biasL  []float64
	respL  []float64
	edgeWL []float64
	// layers is the eval schedule split by longest-path layer, so no
	// vertex reads another of its own layer.
	layers []batchLayer
}

// batchLayer is one layer of the eval schedule: sig holds its
// sum-aggregated sigmoid vertices (the default gene), checked once
// against the program's CSR and the batch width and evaluated together
// in one call, and other the rest, in schedule order.
type batchLayer struct {
	sig   vmath.SigmoidLayer
	other []int32
}

// BatchState is the mutable evaluation state for one BatchProgram: the
// [node][lane] activation planes plus one accumulator row for the
// vertices the fused sigmoid kernel does not take. Zero-alloc in
// steady state; create one per worker and reuse it.
type BatchState struct {
	vals []float64 // nv * stride activation planes
	acc  []float64 // stride
}

// NewBatch allocates a batch evaluator with the given lane count,
// shaped by the exemplar's topology. Every lane starts loaded with the
// exemplar's parameters; use SetLane to load others.
func NewBatch(exemplar Program, width int) *BatchProgram {
	if exemplar.IsZero() {
		panic("network: NewBatch on zero Program")
	}
	if width < 1 {
		panic("network: NewBatch width < 1")
	}
	p := exemplar.p
	bp := &BatchProgram{
		p:      p,
		width:  width,
		biasL:  make([]float64, len(p.ids)*width),
		respL:  make([]float64, len(p.ids)*width),
		edgeWL: make([]float64, len(p.edgeW)*width),
	}
	for lane := 0; lane < width; lane++ {
		bp.setLane(lane, p)
	}
	start := int32(0)
	for _, end := range p.layerEnd {
		var ly batchLayer
		var sig []int32
		for _, pos := range p.evalPos[start:end] {
			if p.agg[pos] == gene.AggSum && p.act[pos] == gene.ActSigmoid {
				sig = append(sig, pos)
			} else {
				ly.other = append(ly.other, pos)
			}
		}
		ly.sig = vmath.NewSigmoidLayer(p.edgeOff, p.edgePos, sig, width)
		bp.layers = append(bp.layers, ly)
		start = end
	}
	return bp
}

// Width returns the allocated lane count (the plane stride).
func (bp *BatchProgram) Width() int { return bp.width }

// NumInputs returns the observation width of every lane.
func (bp *BatchProgram) NumInputs() int { return bp.p.numIn }

// NumOutputs returns the action width of every lane.
func (bp *BatchProgram) NumOutputs() int { return bp.p.numOut }

// NumVertices returns the per-lane node count.
func (bp *BatchProgram) NumVertices() int { return len(bp.p.ids) }

// NumEdges returns the per-lane enabled connection count.
func (bp *BatchProgram) NumEdges() int { return bp.p.macs }

// SetLane loads pr's parameters into one lane. pr must share the batch
// topology (the caller grouped by TopoKey + SameTopology; this is
// re-checked cheaply by hash).
func (bp *BatchProgram) SetLane(lane int, pr Program) error {
	if lane < 0 || lane >= bp.width {
		return fmt.Errorf("network: SetLane %d out of range [0,%d)", lane, bp.width)
	}
	if pr.IsZero() || pr.p.topoHash != bp.p.topoHash || !sameTopology(pr.p, bp.p) {
		return fmt.Errorf("network: SetLane program topology mismatch")
	}
	bp.setLane(lane, pr.p)
	return nil
}

func (bp *BatchProgram) setLane(lane int, p *program) {
	w := bp.width
	for i, v := range p.bias {
		bp.biasL[i*w+lane] = v
	}
	for i, v := range p.resp {
		bp.respL[i*w+lane] = v
	}
	for k, v := range p.edgeW {
		bp.edgeWL[k*w+lane] = v
	}
}

// SwapLanes exchanges the parameters of two lanes (activation state is
// fully rewritten by every FeedBatchInto, so parameters are the only
// per-lane network state). The evolve scheduler uses this to compact
// live episodes into the active prefix.
func (bp *BatchProgram) SwapLanes(a, b int) {
	if a == b {
		return
	}
	w := bp.width
	nv := len(bp.p.ids)
	for i := 0; i < nv; i++ {
		r := i * w
		bp.biasL[r+a], bp.biasL[r+b] = bp.biasL[r+b], bp.biasL[r+a]
		bp.respL[r+a], bp.respL[r+b] = bp.respL[r+b], bp.respL[r+a]
	}
	for k := 0; k < len(bp.p.edgeW); k++ {
		r := k * w
		bp.edgeWL[r+a], bp.edgeWL[r+b] = bp.edgeWL[r+b], bp.edgeWL[r+a]
	}
}

// ObsPlane returns the rows of st that are this batch's observation
// plane: the inputs' activation rows, which the compiler places first.
// Environment resets and steps write observations there, and
// FeedBatchInto reads them in place.
func (bp *BatchProgram) ObsPlane(st *BatchState) []float64 {
	return st.vals[:bp.p.numIn*bp.width]
}

// ActPlane returns the rows of st that are this batch's action plane:
// the outputs' activation rows, which the compiler places last.
// FeedBatchInto writes them, and environment steps read them in place.
func (bp *BatchProgram) ActPlane(st *BatchState) []float64 {
	return st.vals[len(st.vals)-bp.p.numOut*bp.width:]
}

// NewState allocates evaluation state sized for this batch.
func (bp *BatchProgram) NewState() *BatchState {
	w := bp.width
	return &BatchState{
		vals: make([]float64, len(bp.p.ids)*w),
		acc:  make([]float64, w),
	}
}

// FeedBatchInto evaluates the first active lanes of st on the
// observations in its ObsPlane rows, leaving the outputs in its
// ActPlane rows. Both are struct-of-arrays: row i holds input (output)
// i of every lane, lane l at column l. Per lane it performs exactly
// the float operations of Network.FeedInto in exactly the same order —
// the batch engine's byte-equality guarantee. It walks the schedule
// layer by layer. A layer's sum-aggregated sigmoid vertices (the
// default gene) are one vmath.SigmoidLayer.Eval call, which on
// AVX2+FMA hosts sums, scales, clamps and squashes each 4-lane group of
// every row in registers, two groups' chains at a time, with a kernel
// bit-identical to the scalar expression; any other vertex accumulates
// its row, then activates lane by lane. Vertices of one layer never
// read each other, so this order within a layer changes no result.
// Zero allocations in steady state.
func (bp *BatchProgram) FeedBatchInto(st *BatchState, active int) error {
	p := bp.p
	w := bp.width
	if active < 0 || active > w {
		return fmt.Errorf("network: active %d out of range [0,%d]", active, w)
	}
	if len(st.vals) != len(p.ids)*w {
		return fmt.Errorf("network: state sized for %d floats, want %d", len(st.vals), len(p.ids)*w)
	}
	vals := st.vals
	acc := st.acc[:active]
	for i := range bp.layers {
		ly := &bp.layers[i]
		// Vertices of one layer never read each other, so the sigmoid
		// rows go first, all in one call. The kernel takes each row's
		// pad lanes up to its last 4-lane group (never past lane w):
		// they hold stale or zeroed inputs and parameters, and their
		// results are never read.
		ly.sig.Eval(vals, bp.edgeWL, bp.biasL, bp.respL, active)
		for _, pos := range ly.other {
			lo, hi := p.edgeOff[pos], p.edgeOff[pos+1]
			if f := p.agg[pos]; f == gene.AggSum {
				for l := range acc {
					acc[l] = 0
				}
				for k := lo; k < hi; k++ {
					sp := int(p.edgePos[k]) * w
					src := vals[sp : sp+active]
					wp := bp.edgeWL[int(k)*w : int(k)*w+active]
					wp = wp[:len(src)]
					a := acc[:len(src)]
					for l, v := range src {
						a[l] += v * wp[l]
					}
				}
			} else {
				for l := 0; l < active; l++ {
					acc[l] = bp.aggregateLane(f, vals, lo, hi, l)
				}
			}
			r := int(pos) * w
			row := vals[r : r+active]
			bRow, rRow, a := bp.biasL[r:r+len(row)], bp.respL[r:r+len(row)], acc[:len(row)]
			act := p.act[pos]
			for l := range row {
				row[l] = Activate(act, bRow[l]+rRow[l]*a[l])
			}
		}
	}
	return nil
}

// aggregateLane is the strided, single-lane twin of aggregateEdges for
// the non-sum aggregations: same cases, same edge order, same float
// operations, reading lane columns out of the SoA planes.
func (bp *BatchProgram) aggregateLane(f gene.Aggregation, vals []float64, lo, hi int32, lane int) float64 {
	if hi == lo {
		return 0
	}
	p, w := bp.p, bp.width
	lv := func(k int32) float64 {
		return vals[int(p.edgePos[k])*w+lane] * bp.edgeWL[int(k)*w+lane]
	}
	switch f {
	case gene.AggProduct:
		prod := 1.0
		for k := lo; k < hi; k++ {
			prod *= lv(k)
		}
		return prod
	case gene.AggMax:
		m := lv(lo)
		for k := lo + 1; k < hi; k++ {
			if x := lv(k); x > m {
				m = x
			}
		}
		return m
	case gene.AggMin:
		m := lv(lo)
		for k := lo + 1; k < hi; k++ {
			if x := lv(k); x < m {
				m = x
			}
		}
		return m
	case gene.AggMean:
		var s float64
		for k := lo; k < hi; k++ {
			s += lv(k)
		}
		return s / float64(hi-lo)
	default:
		var s float64
		for k := lo; k < hi; k++ {
			s += lv(k)
		}
		return s
	}
}
