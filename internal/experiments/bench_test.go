package experiments

import (
	"io"
	"testing"
)

// suiteOpt is the pinned fidelity of the full-suite benchmark:
// single-run figures at bench population with a paper-leaning RAM
// budget, so the duplicated evolutions the run cache removes dominate
// the wall clock the way they do at paper scale. The suite numbers in
// the committed BENCH_*.json records were measured at this fidelity.
func suiteOpt() Options {
	return Options{
		Seed:           42,
		Runs:           1,
		MaxGenerations: 20,
		Population:     64,
		RAMPopulation:  96,
		RAMGenerations: 12,
	}
}

// BenchmarkExperimentSuite measures one full cmd/experiments
// invocation: every registered experiment regenerated through RunAll
// over a cold shared cache, rendered to a discarded writer. This is
// the harness-level number the PR's ≥2× acceptance criterion is judged
// on; the evolutions/studies metrics record that each unique evolution
// executed exactly once per iteration.
func BenchmarkExperimentSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetCaches()
		err := RunAll(IDs(), suiteOpt(), func(o Outcome) {
			if o.Err != nil {
				b.Fatalf("%s: %v", o.ID, o.Err)
			}
			if err := o.Res.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runTier.mem.computes.Load()), "evolutions")
	b.ReportMetric(float64(studyCache.computes.Load()), "studies")
	ResetCaches()
}

// BenchmarkExperimentSuiteSerial is the same suite pinned to -j 1: the
// cache still dedups, only the overlap is gone. The gap between this
// and BenchmarkExperimentSuite is the scheduling win; the gap to the
// pinned baseline is the dedup win.
func BenchmarkExperimentSuiteSerial(b *testing.B) {
	opt := suiteOpt()
	opt.Parallelism = 1
	for i := 0; i < b.N; i++ {
		ResetCaches()
		err := RunAll(IDs(), opt, func(o Outcome) {
			if o.Err != nil {
				b.Fatalf("%s: %v", o.ID, o.Err)
			}
			if err := o.Res.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	ResetCaches()
}
