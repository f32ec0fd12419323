package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/neat"
)

// referenceParse is the fmt.Sscanf trace reader Parse replaced, kept
// as the reference FuzzParse pins it against. It checks the field
// count of C records only and ignores whatever follows the last field
// it scans: inputs Parse rejects.
func referenceParse(r io.Reader) (*Trace, error) {
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
