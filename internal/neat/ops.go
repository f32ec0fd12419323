package neat

import "repro/internal/gene"

// Op identifies one gene-level reproduction operation — the unit of work
// an EvE PE pipeline stage performs, and the unit counted in Fig. 5(a).
type Op uint8

// The operation alphabet of Fig. 3(d): crossover plus the three mutation
// classes (perturbation, gene addition, gene deletion). Additions and
// deletions are split by gene kind because the hardware engines treat
// node and connection genes differently.
const (
	OpCrossover Op = iota
	OpPerturb
	OpAddNode
	OpAddConn
	OpDeleteNode
	OpDeleteConn
	numOps
)

// NumOps is the number of distinct operation types.
const NumOps = int(numOps)

// String names the op.
func (o Op) String() string {
	names := [...]string{"crossover", "perturb", "add-node", "add-conn", "del-node", "del-conn"}
	if int(o) < len(names) {
		return names[o]
	}
	return "op?"
}

// IsMutation reports whether the op belongs to the mutation class.
func (o Op) IsMutation() bool { return o != OpCrossover }

// Event is one reproduction-trace record: the gene-level operations
// that produced one child genome, tallied by type. The paper's
// methodology (Section VI-A) traces each operation; the EvE hardware
// model replays one record per child (one PE per child), so the
// per-child tally is all it consumes.
type Event struct {
	Generation int
	Child      int64 // child genome id
	Parent1    int64 // primary (fitter) parent genome id
	Parent2    int64 // secondary parent id, or -1 for mutation-only children
	// Ops tallies the child's gene-level operations by type.
	Ops [NumOps]int64
}

// Recorder receives reproduction events: one event per child that
// underwent at least one gene-level operation, in creation order.
// Elites and unchanged clones produce none.
type Recorder interface {
	Record(Event)
}

// GenerationStarter is an optional Recorder extension: recorders that
// also implement it are handed a snapshot of the parent population at
// the start of every reproduction round (the genome sizes the gene-split
// block will stream from the genome buffer).
type GenerationStarter interface {
	StartGeneration(gen int, genomes []*gene.Genome)
}

// OpCounts tallies gene-level operations by type. It implements Recorder
// so it can be used directly when only aggregate counts are needed
// (Fig. 5(a)).
type OpCounts struct {
	ByOp [NumOps]int64
}

// Record adds the event's tallies.
func (c *OpCounts) Record(e Event) {
	for op, n := range e.Ops {
		c.ByOp[op] += n
	}
}

// Crossovers returns the crossover-op count.
func (c *OpCounts) Crossovers() int64 { return c.ByOp[OpCrossover] }

// Mutations returns the total mutation-op count across the five
// mutation types.
func (c *OpCounts) Mutations() int64 {
	var n int64
	for op := OpPerturb; op < Op(NumOps); op++ {
		n += c.ByOp[op]
	}
	return n
}

// Total returns all gene-level ops.
func (c *OpCounts) Total() int64 { return c.Crossovers() + c.Mutations() }

// Reset zeroes the tallies.
func (c *OpCounts) Reset() { c.ByOp = [NumOps]int64{} }

// multiRecorder fans events out to several recorders.
type multiRecorder []Recorder

func (m multiRecorder) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}

// StartGeneration forwards the snapshot to every member that wants it.
func (m multiRecorder) StartGeneration(gen int, genomes []*gene.Genome) {
	for _, r := range m {
		if gs, ok := r.(GenerationStarter); ok {
			gs.StartGeneration(gen, genomes)
		}
	}
}

// MultiRecorder combines recorders; nils are dropped. It returns nil if
// none remain.
func MultiRecorder(rs ...Recorder) Recorder {
	var out multiRecorder
	for _, r := range rs {
		if r != nil {
			out = append(out, r)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}
