package network

// Plan is the output of the vectorize routine (Section IV-D): the
// irregular DAG re-posed as a sequence of dense matrix–vector
// multiplications, one per topological layer. The System CPU computes
// this packing once per genome per generation; ADAM then executes each
// stage on the systolic array, one inference per environment step.
type Plan struct {
	// Stages in evaluation order.
	Stages []Stage
	// Vertices and Edges describe the source network.
	Vertices int
	Edges    int
}

// Stage is one packed matrix–vector multiply: Rows destination vertices
// are updated from Cols already-computed source vertices through the
// Rows×Cols weight matrix, of which NonZero entries are true edges —
// the utilization the paper ties to connection-gene share (Fig. 11a).
// The cycle models only need these dimensions; the functional array
// builds its own matrices (adam.Executor.Compile).
type Stage struct {
	Rows    int
	Cols    int
	NonZero int
}

// MACs returns the dense multiply-accumulate count the systolic array
// performs for this stage (it cannot skip the packed zeros).
func (s Stage) MACs() int { return s.Rows * s.Cols }

// BuildPlan computes the packed execution plan for the network. For
// each layer, the input vector is the set of distinct source vertices
// feeding that layer (the "well formed input vector" the CPU packs);
// the stage records the shape of the matrix that packs their weights,
// zero where a destination lacks an edge from a source, and its
// non-zero count.
func (n *Network) BuildPlan() Plan {
	prog := n.prog
	p := Plan{Vertices: n.NumVertices(), Edges: n.NumEdges()}
	start := int32(0)
	for _, end := range prog.layerEnd {
		layer := prog.evalPos[start:end]
		start = end
		// Distinct sources feeding this layer, and its edges.
		srcs := map[int32]struct{}{}
		edges := 0
		for _, pos := range layer {
			for k := prog.edgeOff[pos]; k < prog.edgeOff[pos+1]; k++ {
				srcs[prog.edgePos[k]] = struct{}{}
				edges++
			}
		}
		p.Stages = append(p.Stages, Stage{Rows: len(layer), Cols: len(srcs), NonZero: edges})
	}
	return p
}

// TotalMACs sums the dense MAC work across stages — what ADAM executes
// for one inference.
func (p Plan) TotalMACs() int {
	t := 0
	for _, s := range p.Stages {
		t += s.MACs()
	}
	return t
}

// MeanDensity is the edge-weighted mean stage density.
func (p Plan) MeanDensity() float64 {
	total, nz := 0, 0
	for _, s := range p.Stages {
		total += s.MACs()
		nz += s.NonZero
	}
	if total == 0 {
		return 0
	}
	return float64(nz) / float64(total)
}
