// Atari-RAM scale: the heavyweight class of the paper's workloads.
//
// The 128-byte RAM titles are what push GeneSys: ~2.5k-gene genomes,
// population gene totals in the 10^5 range (Fig. 4b), and reproduction
// op counts in the hundred-thousands per generation (Fig. 5a) — the
// gene-level parallelism EvE's 256 PEs exist to absorb. This example
// evolves Asterix-ram and reports the scale metrics plus the on-chip
// footprint against the 1.5 MB genome buffer.
//
//	go run ./examples/atari
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hw/energy"
)

func main() {
	sys, err := core.New(core.Config{
		Workload:       "asterix-ram",
		Seed:           5,
		Population:     150, // paper scale
		HardwareInLoop: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	buffer := energy.DefaultSoC().SRAMKB * 1024

	fmt.Println("evolving asterix-ram at paper scale (pop=150, 128-byte observations)")
	fmt.Printf("%-4s %-8s %-9s %-10s %-10s %-9s %-8s\n",
		"gen", "best", "genes", "ops/gen", "foot-KB", "buf-use%", "soc-ms")
	for gen := 0; gen < 4; gen++ {
		res, err := sys.RunGeneration()
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats
		ops := st.CrossoverOps + st.MutationOps
		fmt.Printf("%-4d %-8.1f %-9d %-10d %-10.0f %-8.1f %-8.2f\n",
			st.Generation, st.MaxFitness, st.TotalGenes, ops,
			float64(st.FootprintBytes)/1024,
			float64(st.FootprintBytes)/float64(buffer)*100,
			res.HW.Float("total_seconds")*1e3)
		if res.HW.Int("spills") > 0 {
			fmt.Println("  !! generation spilled the on-chip genome buffer to DRAM")
		}
		if st.Solved {
			break
		}
	}

	last := sys.History[len(sys.History)-1]
	fmt.Printf("\ngene-level parallelism: %d ops this generation across 256 PEs (%d waves)\n",
		last.HW.Int("eve/pe/gene_ops"), last.HW.Int("eve/waves"))
	fmt.Printf("population-level parallelism: %d genomes' inference packed onto the 32x32 array\n",
		150)
	fmt.Printf("chip energy this generation: %.1f uJ (evolve %.1f + infer %.1f)\n",
		last.HW.Float("energy_pj")/1e6,
		last.HW.Float("eve/energy_pj")/1e6,
		last.HW.Float("adam/energy_pj")/1e6)
}
