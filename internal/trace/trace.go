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
	"strconv"

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

// Parse reads a trace previously produced by WriteTo. Each record
// has exactly its fields: base-10 integers that fit an int, separated
// by ASCII white space. Blank lines are skipped.
func Parse(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	var v [3 + neat.NumOps]int64
	for line := 1; sc.Scan(); line++ {
		tag, err := parseRecord(sc.Bytes(), v[:])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch tag {
		case 0: // a blank line
		case 'G':
			t.Generations = append(t.Generations, Generation{
				Index:           int(v[0]),
				PopulationGenes: int(v[1]),
				ParentSizes:     map[int64]int{},
			})
		default:
			if len(t.Generations) == 0 {
				return nil, fmt.Errorf("trace: line %d: %c before G", line, tag)
			}
			g := &t.Generations[len(t.Generations)-1]
			if tag == 'P' {
				g.ParentSizes[v[0]] = int(v[1])
				continue
			}
			c := ChildRecord{Child: v[0], Parent1: v[1], Parent2: v[2]}
			copy(c.Ops[:], v[3:])
			g.Children = append(g.Children, c)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t, nil
}

// parseRecord reads one line into its tag, 0 for a blank line, and
// the record's integer fields, stored in v. The field count must be
// the tag's exactly; v has room for the longest record.
func parseRecord(line []byte, v []int64) (byte, error) {
	tag, rest := nextField(line)
	var want int
	switch string(tag) {
	case "":
		return 0, nil
	case "G", "P":
		want = 2
	case "C":
		want = 3 + neat.NumOps
	default:
		return 0, fmt.Errorf("unknown record %q", tag)
	}
	have := 0
	for f, rest := nextField(rest); f != nil; f, rest = nextField(rest) {
		if have < want {
			x, err := strconv.ParseInt(string(f), 10, strconv.IntSize)
			if err != nil {
				return 0, err
			}
			v[have] = x
		}
		have++
	}
	if have != want {
		return 0, fmt.Errorf("want %d fields, have %d", 1+want, 1+have)
	}
	return tag[0], nil
}

// nextField returns the first run of non-white-space bytes in b, or
// nil, and what follows it.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	if i == j {
		return nil, nil
	}
	return b[i:j], b[j:]
}

// isSpace reports whether c is ASCII white space.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}
