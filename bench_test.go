// Package repro's root benchmarks regenerate the paper's evaluation.
// BenchmarkFigures has one sub-benchmark per registered experiment:
// each runs the real pipeline (evolution → traces → hardware models →
// baseline models) from a cold run cache, timing the figure, and writes
// the rendered rows to results/<id>.txt. ablation_bench_test.go times
// the design-choice ablations. The benches assert nothing:
// TestPaperClaims (claims_test.go) checks the paper's claims on the
// same runs and compares every figure with results/ byte for byte.
//
//	go test -run=NONE -bench=. -benchtime=1x .
//
// Scale note: benchOpt is a reduced population (64 control / 32 RAM)
// so the whole harness completes in seconds. For paper-scale numbers
// run `go run ./cmd/experiments -run all -pop 150 -ram-pop 150`.
package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// benchOpt is the fidelity of results/ and of the claims table.
func benchOpt() experiments.Options {
	return experiments.Options{
		Seed:           42,
		Runs:           2,
		MaxGenerations: 20,
		Population:     64,
		RAMPopulation:  32,
		RAMGenerations: 5,
	}
}

// BenchmarkFigures times each registered figure and writes its
// rendering to results/<id>.txt. The run cache is dropped before every
// iteration, so a figure never rides on runs another figure evolved.
func BenchmarkFigures(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			var res *experiments.Result
			for i := 0; i < b.N; i++ {
				experiments.ResetCaches()
				var err error
				if res, err = experiments.Run(id, benchOpt()); err != nil {
					b.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("results", id+".txt"), buf.Bytes(), 0o644); err != nil {
				b.Fatal(err)
			}
		})
	}
}
