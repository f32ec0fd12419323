package soc

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gene"
	"repro/internal/hw/adam"
	"repro/internal/hw/energy"
	"repro/internal/hw/fault"
	"repro/internal/hw/hwsim"
	"repro/internal/trace"
)

// ledgerTrace is two hand-written reproduction rounds in the trace line
// format: "G index population-genes", "P parent genes", and
// "C child parent1 parent2" followed by the op counts in neat.Op order
// (crossover, perturb, add-node, add-conn, delete-node, delete-conn).
// It is a fixed input rather than an evolved run, so changes to the
// evolution code never move the golden ledgers.
const ledgerTrace = `G 1 96
P 0 14
P 1 12
P 2 18
P 3 10
P 4 22
P 5 20
C 10 0 1 14 4 0 1 0 0
C 11 0 1 14 2 1 0 0 0
C 12 0 2 18 5 0 2 0 1
C 13 2 4 22 6 1 1 0 0
C 14 0 -1 0 3 0 0 0 0
C 15 4 5 22 7 0 1 1 0
C 16 4 5 22 2 0 0 0 0
C 17 3 -1 0 1 0 1 0 0
G 2 127
P 10 15
P 12 19
P 13 24
P 15 23
P 16 22
P 17 24
C 20 13 15 24 8 1 2 0 0
C 21 13 15 24 3 0 0 0 1
C 22 13 16 24 5 0 1 0 0
C 23 12 -1 0 4 0 0 0 0
C 24 17 10 24 6 1 0 1 0
C 25 13 15 24 2 0 1 0 0
`

// ledgerFootprint is the genome-buffer working set the ledger
// generations declare.
const ledgerFootprint = 2048

// ledgerJobs is the inference input of every ledger generation: three
// hand-built networks (four inputs, two outputs, a chain of zero, one
// and two hidden nodes), each charged its own number of passes so the
// packed schedule runs ragged rounds.
func ledgerJobs(t *testing.T) []adam.Job {
	t.Helper()
	var genomes []*gene.Genome
	for k := 0; k < 3; k++ {
		g := gene.NewGenome(int64(k))
		for i := int32(0); i < 4; i++ {
			g.PutNode(gene.NewNode(i, gene.Input))
		}
		g.PutNode(gene.NewNode(4, gene.Output))
		g.PutNode(gene.NewNode(5, gene.Output))
		for i := int32(0); i < 4; i++ {
			g.PutConn(gene.NewConn(i, 4, 0.5))
		}
		src := int32(0)
		for h := int32(0); h < int32(k); h++ {
			g.PutNode(gene.NewNode(6+h, gene.Hidden))
			g.PutConn(gene.NewConn(src, 6+h, 0.25))
			src = 6 + h
		}
		g.PutConn(gene.NewConn(src, 5, -0.5))
		genomes = append(genomes, g)
	}
	jobs, err := adam.JobsFor(genomes, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].Steps = 10 * (i + 1)
	}
	return jobs
}

// ledgerSnapshots runs the ledger generations on three chips and
// returns each chip's snapshot by golden-file name: a clean chip, a
// SECDED chip with every fault class active, and a clean chip reset
// between two generations.
func ledgerSnapshots(t *testing.T) map[string]hwsim.Report {
	t.Helper()
	tr, err := trace.Parse(strings.NewReader(ledgerTrace))
	if err != nil {
		t.Fatal(err)
	}
	jobs := ledgerJobs(t)
	run := func(cfg energy.SoCConfig, gens ...*trace.Generation) hwsim.Report {
		s := New(cfg)
		for _, g := range gens {
			s.Reset()
			s.RunGeneration(jobs, g, ledgerFootprint)
		}
		return s.Snapshot()
	}
	first, second := &tr.Generations[0], &tr.Generations[1]
	return map[string]hwsim.Report{
		"clean":  run(energy.DefaultSoC(), first),
		"secded": run(faultySoC(fault.SECDED), first),
		"reset":  run(energy.DefaultSoC(), first, second),
	}
}

// TestGoldenChipLedgers pins the whole chip ledger, every raw and
// derived counter, to snapshot JSON committed in testdata/.
func TestGoldenChipLedgers(t *testing.T) {
	for name, rep := range ledgerSnapshots(t) {
		got, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s chip ledger differs from testdata/%s.json:\n%s", name, name, got)
		}
	}
}
