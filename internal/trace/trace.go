// Package trace records reproduction-operation traces.
//
// The paper's evaluation methodology (Section VI-A) instruments the
// NEAT implementation to emit a trace in which "each line captures the
// generation, the child gene and genome id, the type of operation —
// mutation or crossover, and the parameters changed or added or deleted
// by the operations"; those traces then drive the EvE and ADAM hardware
// models. This package is that artifact: a neat.Recorder that organizes
// events per generation and per child, captures the parent genome sizes
// the gene-split logic streams, and serializes to a line-oriented text
// format.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/gene"
	"repro/internal/neat"
)

// ChildRecord tallies the gene-level operations that produced one
// child genome — the work one EvE PE performs (one PE per child,
// Section IV-C5).
type ChildRecord struct {
	Child   int64
	Parent1 int64
	Parent2 int64 // -1 for mutation-only children
	// Ops tallies gene-level operations by type.
	Ops [neat.NumOps]int64
}

// TotalOps is the child's total gene-level op count.
func (c *ChildRecord) TotalOps() int64 {
	var n int64
	for _, v := range c.Ops {
		n += v
	}
	return n
}

// GenesStreamed approximates the genes streamed through the PE for this
// child: the crossover ops (one per aligned gene pair) plus structural
// additions.
func (c *ChildRecord) GenesStreamed() int64 {
	return c.Ops[neat.OpCrossover] + c.Ops[neat.OpAddNode] + c.Ops[neat.OpAddConn]
}

// Generation groups the reproduction of one generation.
type Generation struct {
	Index int
	// Children in creation order (the order the gene selector hands
	// them to the gene-split block).
	Children []ChildRecord
	// ParentSizes maps parent genome id → gene count, captured at the
	// start of reproduction; this is what the genome buffer must serve.
	ParentSizes map[int64]int
	// PopulationGenes is the total gene count of the parent population.
	PopulationGenes int
}

// Crossovers sums crossover ops across children.
func (g *Generation) Crossovers() int64 { return g.opTotal(neat.OpCrossover) }

// Mutations sums mutation ops across children.
func (g *Generation) Mutations() int64 {
	var n int64
	for op := neat.OpPerturb; op < neat.Op(neat.NumOps); op++ {
		n += g.opTotal(op)
	}
	return n
}

func (g *Generation) opTotal(op neat.Op) int64 {
	var n int64
	for i := range g.Children {
		n += g.Children[i].Ops[op]
	}
	return n
}

// ParentUse returns how many children used each parent — the
// genome-level-reuse profile the multicast NoC exploits.
func (g *Generation) ParentUse() map[int64]int {
	use := make(map[int64]int)
	for i := range g.Children {
		c := &g.Children[i]
		use[c.Parent1]++
		if c.Parent2 >= 0 {
			use[c.Parent2]++
		}
	}
	return use
}

// Trace is an ordered sequence of generation records. It implements
// neat.Recorder (via Record) and neat.GenerationStarter (via
// StartGeneration), so attaching it to a Population captures everything
// the hardware models need.
type Trace struct {
	Generations []Generation
}

// StartGeneration snapshots the parent population at the beginning of a
// reproduction round.
func (t *Trace) StartGeneration(gen int, genomes []*gene.Genome) {
	g := Generation{
		Index:       gen,
		ParentSizes: make(map[int64]int, len(genomes)),
	}
	for _, gn := range genomes {
		g.ParentSizes[gn.ID] = gn.NumGenes()
		g.PopulationGenes += gn.NumGenes()
	}
	t.Generations = append(t.Generations, g)
}

// Record implements neat.Recorder. Each child arrives in one event, so
// its record is appended.
func (t *Trace) Record(e neat.Event) {
	if len(t.Generations) == 0 || t.Generations[len(t.Generations)-1].Index != e.Generation {
		// Reproduction without a StartGeneration snapshot (e.g. a bare
		// Population): open an empty generation record.
		t.Generations = append(t.Generations, Generation{
			Index:       e.Generation,
			ParentSizes: map[int64]int{},
		})
	}
	g := &t.Generations[len(t.Generations)-1]
	g.Children = append(g.Children, ChildRecord{
		Child: e.Child, Parent1: e.Parent1, Parent2: e.Parent2, Ops: e.Ops,
	})
}

// Last returns the most recent generation record, or nil.
func (t *Trace) Last() *Generation {
	if len(t.Generations) == 0 {
		return nil
	}
	return &t.Generations[len(t.Generations)-1]
}

// WriteTo serializes the trace in the paper's line format:
//
//	G <index> <populationGenes>
//	P <parentID> <genes>
//	C <childID> <parent1> <parent2> <ops per type...>
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	emit := func(format string, args ...any) error {
		m, err := fmt.Fprintf(bw, format, args...)
		n += int64(m)
		return err
	}
	for gi := range t.Generations {
		g := &t.Generations[gi]
		if err := emit("G %d %d\n", g.Index, g.PopulationGenes); err != nil {
			return n, err
		}
		// Sorted parent ids: serialization is a pure function of the
		// trace, so identical runs write identical bytes — the property
		// the content-addressed run store's idempotent commits lean on.
		ids := make([]int64, 0, len(g.ParentSizes))
		for id := range g.ParentSizes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if err := emit("P %d %d\n", id, g.ParentSizes[id]); err != nil {
				return n, err
			}
		}
		for ci := range g.Children {
			c := &g.Children[ci]
			if err := emit("C %d %d %d", c.Child, c.Parent1, c.Parent2); err != nil {
				return n, err
			}
			for _, v := range c.Ops {
				if err := emit(" %d", v); err != nil {
					return n, err
				}
			}
			if err := emit("\n"); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// Parse reads a trace previously produced by WriteTo.
func Parse(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "G":
			var idx, popGenes int
			if _, err := fmt.Sscanf(text, "G %d %d", &idx, &popGenes); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			t.Generations = append(t.Generations, Generation{
				Index:           idx,
				PopulationGenes: popGenes,
				ParentSizes:     map[int64]int{},
			})
		case "P":
			if len(t.Generations) == 0 {
				return nil, fmt.Errorf("trace: line %d: P before G", line)
			}
			var id int64
			var sz int
			if _, err := fmt.Sscanf(text, "P %d %d", &id, &sz); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			t.Generations[len(t.Generations)-1].ParentSizes[id] = sz
		case "C":
			if len(t.Generations) == 0 {
				return nil, fmt.Errorf("trace: line %d: C before G", line)
			}
			if len(fields) != 4+neat.NumOps {
				return nil, fmt.Errorf("trace: line %d: want %d fields, have %d",
					line, 4+neat.NumOps, len(fields))
			}
			var c ChildRecord
			if _, err := fmt.Sscanf(strings.Join(fields[1:4], " "), "%d %d %d",
				&c.Child, &c.Parent1, &c.Parent2); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			for i := 0; i < neat.NumOps; i++ {
				if _, err := fmt.Sscanf(fields[4+i], "%d", &c.Ops[i]); err != nil {
					return nil, fmt.Errorf("trace: line %d: %w", line, err)
				}
			}
			g := &t.Generations[len(t.Generations)-1]
			g.Children = append(g.Children, c)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", line, fields[0])
		}
	}
	return t, sc.Err()
}
