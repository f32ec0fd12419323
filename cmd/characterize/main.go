// Command characterize reproduces the Section III characterization of
// a single workload: per-generation fitness, gene growth, reproduction
// op counts, parent reuse and memory footprint (the raw data behind
// Fig. 4 and Fig. 5), and optionally dumps the reproduction trace in
// the paper's line format for the hardware models.
//
// Usage:
//
//	characterize -workload lunarlander -generations 60 -trace out.trace
//	characterize -workload cartpole -runs 8 -records records.json
//
// With -runs > 1 it runs a study of independent runs and prints its
// convergence statistics. Ctrl-C prints the partial study; a study
// does not checkpoint, so running it again starts every run afresh.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/evolve"
	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
	"repro/internal/neat"
	"repro/internal/serve/signalctx"
	"repro/internal/stats"
	"repro/internal/trace"
)

// writeRecords dumps the structured per-generation record log as JSON.
func writeRecords(log *hwsim.Log, path string) {
	data, err := log.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(1)
	}
	fmt.Printf("records: %d generation records written to %s\n", log.Len(), path)
}

func main() {
	var (
		workload    = flag.String("workload", "cartpole", "task: "+strings.Join(evolve.WorkloadNames(), ", "))
		generations = flag.Int("generations", 50, "generation budget")
		pop         = flag.Int("pop", 150, "population size")
		seed        = flag.Uint64("seed", 42, "run seed")
		traceOut    = flag.String("trace", "", "write the reproduction trace to this file")
		runs        = flag.Int("runs", 1, "independent runs; >1 prints the convergence study instead of per-generation rows")
		recordsOut  = flag.String("records", "", "write per-generation counter records to this file as JSON")
		resilience  = flag.Bool("resilience", false, "run the fault-rate resilience sweep for the workload instead of the characterization")
	)
	flag.Parse()

	// Ctrl-C or SIGTERM cancels the study at the next generation
	// boundary; the partial results and records below still flush.
	ctx, stop := signalctx.Notify(context.Background())
	defer stop()

	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = *pop
	log := &hwsim.Log{}

	if *resilience {
		res, err := experiments.ResilienceFor(*workload, experiments.Options{
			Seed:           *seed,
			MaxGenerations: *generations,
			Population:     *pop,
			Ctx:            ctx,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
			os.Exit(1)
		}
		if err := res.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
			os.Exit(1)
		}
		return
	}

	if *runs > 1 {
		study, err := evolve.RunStudyContext(ctx, *workload, cfg, *runs, *generations, *seed,
			evolve.StudyOptions{Sink: log})
		if err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "characterize:", err)
			os.Exit(1)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "characterize: interrupted; partial study follows")
		}
		fmt.Printf("%s: %d runs × up to %d generations (pop %d)\n",
			*workload, *runs, *generations, *pop)
		fmt.Printf("solve rate:            %.0f%%\n", study.SolveRate()*100)
		fmt.Printf("generations to solve:  %s\n", study.GenerationsToSolve())
		fmt.Printf("ops/generation:        %s\n", stats.Summarize(study.OpsPerGeneration()))
		fmt.Printf("footprint bytes:       %s\n", stats.Summarize(study.FootprintsPerGeneration()))
		fmt.Println("\nmean normalized best fitness by generation:")
		fmt.Print(stats.Chart(study.MeanNormMaxByGeneration(), 60, 10))
		if *recordsOut != "" {
			writeRecords(log, *recordsOut)
		}
		return
	}
	r, err := evolve.NewRunner(*workload, cfg, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(1)
	}
	r.Sink = log
	tr := &trace.Trace{}
	r.SetRecorder(tr)

	fmt.Printf("%-4s %-9s %-9s %-8s %-8s %-9s %-9s %-7s %-9s\n",
		"gen", "max-fit", "mean-fit", "species", "genes", "xover", "mutation", "reuse", "foot-KB")
	var ops, reuse, foot []float64
	for g := 0; g < *generations; g++ {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "characterize: interrupted; flushing partial results")
			break
		}
		st, err := r.Step(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
			os.Exit(1)
		}
		fmt.Printf("%-4d %-9.2f %-9.2f %-8d %-8d %-9d %-9d %-7d %-9.1f\n",
			st.Generation, st.MaxFitness, st.MeanFitness, st.NumSpecies,
			st.TotalGenes, st.CrossoverOps, st.MutationOps,
			st.FittestParentReuse, float64(st.FootprintBytes)/1024)
		ops = append(ops, float64(st.CrossoverOps+st.MutationOps))
		reuse = append(reuse, float64(st.FittestParentReuse))
		foot = append(foot, float64(st.FootprintBytes))
		if st.Solved {
			fmt.Printf("solved at generation %d\n", st.Generation)
			break
		}
	}

	fmt.Printf("\nops/generation:     %s\n", stats.Summarize(ops))
	fmt.Printf("fittest reuse:      %s\n", stats.Summarize(reuse))
	fmt.Printf("footprint bytes:    %s\n", stats.Summarize(foot))

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
			os.Exit(1)
		}
		defer f.Close()
		if _, err := tr.WriteTo(f); err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d generations written to %s\n", len(tr.Generations), *traceOut)
	}
	if *recordsOut != "" {
		writeRecords(log, *recordsOut)
	}
}
