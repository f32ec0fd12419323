// Command genesys evolves a workload on the simulated GeneSys SoC: the
// full closed loop of the paper — ADAM inference against the
// environment, EvE reproduction — with per-generation algorithm and
// hardware reporting.
//
// Usage:
//
//	genesys -workload cartpole -generations 100 -pop 150 -hw
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/serve/signalctx"
)

func main() {
	var (
		workload    = flag.String("workload", "cartpole", "task to evolve: "+strings.Join(evolve.WorkloadNames(), ", "))
		generations = flag.Int("generations", 50, "generation budget")
		pop         = flag.Int("pop", 150, "population size")
		seed        = flag.Uint64("seed", 42, "run seed")
		hw          = flag.Bool("hw", true, "account every generation on the simulated SoC")
		quiet       = flag.Bool("quiet", false, "suppress per-generation lines")
		save        = flag.String("save", "", "write the best evolved genome to this JSON file")
		functional  = flag.Bool("functional", false, "compute (not just account) the run on the functional EvE/ADAM datapaths")
	)
	flag.Parse()

	// Ctrl-C or a container stop (SIGTERM) stops the loop at the next
	// generation boundary; the summary (and -save genome) below still
	// run on the partial state.
	ctx, stop := signalctx.Notify(context.Background())
	defer stop()

	if *functional {
		runFunctional(ctx, *workload, *pop, *generations, *seed, *quiet)
		return
	}

	sys, err := core.New(core.Config{
		Workload:       *workload,
		Seed:           *seed,
		Population:     *pop,
		HardwareInLoop: *hw,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "genesys:", err)
		os.Exit(1)
	}

	fmt.Printf("evolving %s: pop=%d budget=%d generations, target fitness %.1f\n",
		*workload, *pop, *generations, sys.Workload().Target)
	for g := 0; g < *generations; g++ {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "genesys: interrupted; reporting partial run")
			break
		}
		res, err := sys.RunGeneration()
		if err != nil {
			fmt.Fprintln(os.Stderr, "genesys:", err)
			os.Exit(1)
		}
		if !*quiet {
			line := fmt.Sprintf("gen %3d  max %8.2f  mean %8.2f  species %2d  genes %6d",
				res.Stats.Generation, res.Stats.MaxFitness, res.Stats.MeanFitness,
				res.Stats.NumSpecies, res.Stats.TotalGenes)
			if res.HasHW {
				line += fmt.Sprintf("  | soc: %.3f ms  %.2f uJ  move %4.1f%%",
					res.HW.Float("total_seconds")*1e3, res.HW.Float("energy_pj")/1e6,
					res.HW.Float("data_movement_fraction")*100)
			}
			fmt.Println(line)
		}
		if res.Stats.Solved {
			fmt.Printf("solved at generation %d (fitness %.2f >= target %.1f)\n",
				res.Stats.Generation, res.Stats.MaxFitness, sys.Workload().Target)
			break
		}
	}

	sum := sys.Summary()
	fmt.Printf("\nsummary: solved=%v generations=%d best=%.2f\n",
		sum.Solved, sum.Generations, sum.BestFitness)
	if *hw {
		line := fmt.Sprintf("soc: %d cycles, %.3f ms wall, %.2f uJ total",
			sum.TotalCycles, sum.TotalSeconds*1e3, sum.TotalEnergyPJ/1e6)
		// No finished generation means no chip time to average over.
		if sum.TotalSeconds > 0 {
			line += fmt.Sprintf(", avg %.1f mW", sum.TotalEnergyPJ/1e9/sum.TotalSeconds)
		}
		fmt.Println(line)
	}

	if *save != "" {
		// BestEver updates during reproduction; a run that solves on its
		// final generation holds the winner in the live population.
		best := sys.Runner().Pop.BestEver
		if cur := sys.Runner().Pop.Best(); best == nil ||
			(cur != nil && cur.Fitness > best.Fitness) {
			best = cur
		}
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, "genesys:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := best.Save(f); err != nil {
			fmt.Fprintln(os.Stderr, "genesys:", err)
			os.Exit(1)
		}
		fmt.Printf("best genome (%d genes, fitness %.2f) written to %s\n",
			best.NumGenes(), best.Fitness, *save)
	}
}

// runFunctional drives the functional-datapath loop: inference on the
// simulated systolic array, reproduction through the PE pipeline.
func runFunctional(ctx context.Context, workload string, pop, generations int, seed uint64, quiet bool) {
	sys, err := core.NewFunctional(workload, pop, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genesys:", err)
		os.Exit(1)
	}
	fmt.Printf("evolving %s on the functional datapath (pop=%d)\n", workload, pop)
	for g := 0; g < generations; g++ {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "genesys: interrupted")
			return
		}
		st, err := sys.RunGeneration()
		if err != nil {
			fmt.Fprintln(os.Stderr, "genesys:", err)
			os.Exit(1)
		}
		if !quiet {
			fmt.Printf("gen %3d  max %8.2f  mean %8.2f  array-cycles %10d  pe-genes %7d\n",
				st.Generation, st.MaxFitness, st.MeanFitness, st.ArrayCycles, st.PEGenes)
		}
		if st.Solved {
			fmt.Printf("solved at generation %d\n", st.Generation)
			return
		}
	}
	fmt.Println("budget exhausted")
}
