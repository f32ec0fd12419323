package adam

import (
	"fmt"

	"repro/internal/gene"
	"repro/internal/network"
)

// This file is the functional model of ADAM: where adam.go prices
// cycles and energy, Array actually executes the packed matrix–vector
// multiplications on a simulated weight-stationary systolic grid, and
// Executor compiles whole networks onto it (Compile) and runs their
// inference through it (Compiled.Feed) — computing the same activations
// as the software network at the genome's quantized precision.

// Array is a functional rows×cols weight-stationary systolic array.
// Inputs stream in from the left with one-cycle skew per column;
// partial sums accumulate down the rows. The simulation moves data
// through explicit pipeline registers so the cycle count it reports is
// the count the analytic model charges (cols + rows per tile).
type Array struct {
	rows, cols int
}

// NewArray builds an array; dimensions must be positive.
func NewArray(rows, cols int) (*Array, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("adam: bad array shape %d×%d", rows, cols)
	}
	return &Array{rows: rows, cols: cols}, nil
}

// MatVec computes y = W·x on the array, tiling W (r×c) over the grid.
// It returns the product and the simulated cycle count.
func (a *Array) MatVec(w [][]float64, x []float64) ([]float64, int, error) {
	rows := len(w)
	if rows == 0 {
		return nil, 0, nil
	}
	cols := len(w[0])
	if cols != len(x) {
		return nil, 0, fmt.Errorf("adam: matrix is %d wide, vector is %d", cols, len(x))
	}
	y := make([]float64, rows)
	cycles := 0
	for r0 := 0; r0 < rows; r0 += a.rows {
		r1 := min(r0+a.rows, rows)
		for c0 := 0; c0 < cols; c0 += a.cols {
			c1 := min(c0+a.cols, cols)
			cycles += a.runTile(w, x, y, r0, r1, c0, c1)
		}
	}
	return y, cycles, nil
}

// runTile simulates one tile pass: weights loaded stationary at
// PE(r,c); the input x[c] enters the top of column c at cycle c
// (skewed wavefront) and steps down one row per cycle; the partial sum
// of row r enters at its left edge at cycle r and steps right one PE
// per cycle, so PE(r,c) fires exactly at cycle r+c, when its input and
// its upstream partial sum meet. Row r's dot product drains from the
// right edge at cycle r+tc; the tile completes after tc+tr cycles.
func (a *Array) runTile(w [][]float64, x, y []float64, r0, r1, c0, c1 int) int {
	tr, tc := r1-r0, c1-c0
	ps := make([]float64, tr) // partial sum moving right along each row
	for t := 0; t < tr+tc-1; t++ {
		// All PEs on the anti-diagonal r+c == t fire this cycle.
		rLo := t - tc + 1
		if rLo < 0 {
			rLo = 0
		}
		rHi := t
		if rHi > tr-1 {
			rHi = tr - 1
		}
		for r := rLo; r <= rHi; r++ {
			c := t - r
			ps[r] += w[r0+r][c0+c] * x[c0+c]
		}
	}
	// Drained partial sums are the tile's contribution to y.
	for r := 0; r < tr; r++ {
		y[r0+r] += ps[r]
	}
	// Partial sums exit at the physical right edge and inputs load at
	// the physical top edge, so a tile pass occupies the full array
	// traversal regardless of how much of the grid it fills — the same
	// cols+rows the analytic model charges.
	return a.cols + a.rows
}

// Executor runs full-network inference through the array: the CPU
// vectorize thread gathers ready node values per stage, the array does
// the packed multiply, and the per-vertex epilogue applies response,
// bias and activation. Vertices whose aggregation is not sum cannot be
// expressed as a dot product; they fall back to the CPU path and are
// counted in FallbackVertices.
type Executor struct {
	arr *Array
	// FallbackVertices counts vertex updates the array could not take.
	FallbackVertices int64
	// ArrayCycles accumulates simulated array cycles.
	ArrayCycles int64
}

// NewExecutor wraps an array.
func NewExecutor(arr *Array) *Executor { return &Executor{arr: arr} }

// Compiled is a per-genome execution state: the vectorize routine's
// output (stage membership, source indices, weight matrices) computed
// once per generation, as the System CPU does ("the weight matrices do
// not change within a given generation, and are reused for multiple
// inferences"). Feed then runs one inference per environment step on
// the array.
type Compiled struct {
	ex       *Executor
	inputs   []int32
	outputs  []int32
	stages   []compiledStage
	vertex   map[int32]vertexEpilogue
	values   map[int32]float64
	fallback []int32 // non-sum vertices, evaluated on the CPU path
	genome   *gene.Genome
}

// compiledStage is one packed matrix–vector stage.
type compiledStage struct {
	rows []int32 // destination vertices (sum aggregation only)
	srcs []int32 // input vector membership
	w    [][]float64
	x    []float64
	// cpuRows are the layer's non-sum vertices.
	cpuRows []int32
}

// vertexEpilogue is the per-vertex activation applied after the MACs.
type vertexEpilogue struct {
	bias, resp float64
	act        gene.Activation
}

// Compile builds the per-generation state for one genome (quantized to
// the hardware gene word).
func (e *Executor) Compile(g *gene.Genome) (*Compiled, error) {
	hw := gene.FromWords(g.ID, g.Pack())
	layers, err := layering(hw)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		ex:      e,
		inputs:  hw.InputIDs(),
		outputs: hw.OutputIDs(),
		vertex:  make(map[int32]vertexEpilogue, len(hw.Nodes)),
		values:  make(map[int32]float64, len(hw.Nodes)),
		genome:  hw,
	}
	for _, n := range hw.Nodes {
		c.vertex[n.NodeID] = vertexEpilogue{bias: n.Bias, resp: n.Response, act: n.Activation}
	}
	for _, layer := range layers {
		st := compiledStage{}
		srcIdx := map[int32]int{}
		for _, id := range layer {
			n, _ := hw.Node(id)
			if n.Aggregation != gene.AggSum {
				st.cpuRows = append(st.cpuRows, id)
				continue
			}
			st.rows = append(st.rows, id)
			for _, cn := range hw.Conns {
				if cn.Enabled && cn.Dst == id {
					if _, ok := srcIdx[cn.Src]; !ok {
						srcIdx[cn.Src] = len(st.srcs)
						st.srcs = append(st.srcs, cn.Src)
					}
				}
			}
		}
		// Fallback rows also need their sources resolvable; they read
		// values directly, no matrix needed.
		st.w = make([][]float64, len(st.rows))
		st.x = make([]float64, len(st.srcs))
		for r, id := range st.rows {
			st.w[r] = make([]float64, len(st.srcs))
			for _, cn := range hw.Conns {
				if cn.Enabled && cn.Dst == id {
					st.w[r][srcIdx[cn.Src]] = cn.Weight
				}
			}
		}
		c.stages = append(c.stages, st)
	}
	return c, nil
}

// NumInputs returns the observation width.
func (c *Compiled) NumInputs() int { return len(c.inputs) }

// NumOutputs returns the action width.
func (c *Compiled) NumOutputs() int { return len(c.outputs) }

// Feed runs one inference pass on the simulated array. The returned
// slice is reused across calls.
func (c *Compiled) Feed(obs []float64) ([]float64, error) {
	if len(obs) != len(c.inputs) {
		return nil, fmt.Errorf("adam: observation width %d, want %d", len(obs), len(c.inputs))
	}
	for i, id := range c.inputs {
		c.values[id] = obs[i]
	}
	for si := range c.stages {
		st := &c.stages[si]
		for i, s := range st.srcs {
			st.x[i] = c.values[s]
		}
		if len(st.rows) > 0 {
			y, cycles, err := c.ex.arr.MatVec(st.w, st.x)
			if err != nil {
				return nil, err
			}
			c.ex.ArrayCycles += int64(cycles)
			for r, id := range st.rows {
				v := c.vertex[id]
				c.values[id] = network.Activate(v.act, v.bias+v.resp*y[r])
			}
		}
		for _, id := range st.cpuRows {
			n, _ := c.genome.Node(id)
			c.values[id] = cpuVertex(c.genome, n, c.values)
			c.ex.FallbackVertices++
		}
	}
	out := make([]float64, len(c.outputs))
	for i, id := range c.outputs {
		out[i] = c.values[id]
	}
	return out, nil
}

// cpuVertex evaluates a non-sum-aggregation vertex on the CPU path.
func cpuVertex(g *gene.Genome, n gene.Node, values map[int32]float64) float64 {
	var acc []float64
	for _, c := range g.Conns {
		if c.Enabled && c.Dst == n.NodeID {
			acc = append(acc, values[c.Src]*c.Weight)
		}
	}
	return network.Activate(n.Activation, n.Bias+n.Response*network.Aggregate(n.Aggregation, acc))
}

// layering groups non-input nodes by longest-path depth over enabled
// connections (mirrors network.New; returns an error on cycles).
func layering(g *gene.Genome) ([][]int32, error) {
	depth := map[int32]int{}
	indeg := map[int32]int{}
	adj := map[int32][]int32{}
	for _, c := range g.Conns {
		if !c.Enabled {
			continue
		}
		adj[c.Src] = append(adj[c.Src], c.Dst)
		indeg[c.Dst]++
	}
	var queue []int32
	for _, n := range g.Nodes {
		if indeg[n.NodeID] == 0 {
			queue = append(queue, n.NodeID)
		}
	}
	seen := 0
	maxDepth := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		for _, nx := range adj[id] {
			if d := depth[id] + 1; d > depth[nx] {
				depth[nx] = d
				if d > maxDepth {
					maxDepth = d
				}
			}
			indeg[nx]--
			if indeg[nx] == 0 {
				queue = append(queue, nx)
			}
		}
	}
	if seen != len(g.Nodes) {
		return nil, fmt.Errorf("adam: genome %d has a cycle", g.ID)
	}
	layers := make([][]int32, maxDepth+1)
	for _, n := range g.Nodes {
		if n.Type == gene.Input && depth[n.NodeID] == 0 {
			continue
		}
		d := depth[n.NodeID]
		layers[d] = append(layers[d], n.NodeID)
	}
	var out [][]int32
	for _, l := range layers {
		if len(l) > 0 {
			out = append(out, l)
		}
	}
	return out, nil
}
