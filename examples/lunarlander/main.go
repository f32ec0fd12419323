// LunarLander with the GeneSys SoC in the loop.
//
// This example runs the complete system of the paper's walkthrough
// (Section IV-B): every generation the population is evaluated against
// the lander environment (the work ADAM performs), the reproduction
// trace is replayed through the EvE model, and the chip's time, energy
// and data-movement split are reported alongside the learning curve —
// the numbers behind Fig. 9 and Fig. 10c.
//
//	go run ./examples/lunarlander
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

func main() {
	sys, err := core.New(core.Config{
		Workload:       "lunarlander",
		Seed:           11,
		Population:     150,
		HardwareInLoop: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("evolving a lunar-lander policy on the simulated GeneSys SoC")
	fmt.Printf("%-4s %-9s %-9s | %-11s %-10s %-10s %-7s\n",
		"gen", "best", "mean", "soc-ms", "infer-uJ", "evolve-uJ", "move%")
	for gen := 0; gen < 40; gen++ {
		res, err := sys.RunGeneration()
		if err != nil {
			log.Fatal(err)
		}
		st, hw := res.Stats, res.HW
		fmt.Printf("%-4d %-9.1f %-9.1f | %-11.3f %-10.2f %-10.2f %-7.1f\n",
			st.Generation, st.MaxFitness, st.MeanFitness,
			hw.Float("total_seconds")*1e3,
			hw.Float("adam/energy_pj")/1e6,
			hw.Float("eve/energy_pj")/1e6,
			hw.Float("data_movement_fraction")*100)
		if st.Solved {
			fmt.Println("landed! target fitness reached.")
			break
		}
	}

	sum := sys.Summary()
	fmt.Printf("\ntotal chip activity: %.2f ms, %.1f uJ (avg %.1f mW) over %d generations\n",
		sum.TotalSeconds*1e3, sum.TotalEnergyPJ/1e6,
		sum.TotalEnergyPJ/1e9/sum.TotalSeconds, sum.Generations)
	fmt.Println("compare: the embedded GPU baseline spends millijoules per generation",
		"on the same work (run `go run ./cmd/experiments -run fig9d`).")
}
