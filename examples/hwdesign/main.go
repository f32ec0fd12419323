// Hardware design-space exploration.
//
// The paper's Section VI-D asks: how many EvE PEs, and which
// interconnect? This example answers with the same methodology — evolve
// a real workload to get a reproduction trace, then replay that trace
// across design points, printing SRAM reads, cycles, energy, and the
// power/area cost of each point (the data behind Fig. 8b/c and
// Fig. 11b/c).
//
//	go run ./examples/hwdesign
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/evolve"
	"repro/internal/hw/energy"
	"repro/internal/hw/eve"
	"repro/internal/hw/noc"
	"repro/internal/neat"
	"repro/internal/trace"
)

func main() {
	// 1. Evolve Alien-ram a few generations to harvest a realistic
	//    reproduction trace (hundred-thousand-op scale).
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = 64
	r, err := evolve.NewRunner("alien-ram", cfg, 3)
	if err != nil {
		log.Fatal(err)
	}
	tr := &trace.Trace{}
	r.SetRecorder(tr)
	if _, err := r.Run(context.Background(), 3); err != nil {
		log.Fatal(err)
	}
	g := tr.Last()
	fmt.Printf("trace: generation %d, %d children, %d parents, %d genes in population\n\n",
		g.Index, len(g.Children), len(g.ParentSizes), g.PopulationGenes)

	// 2. Sweep PE count × NoC topology.
	fmt.Printf("%-5s %-15s %-12s %-12s %-10s %-9s %-9s %-9s\n",
		"PEs", "noc", "cycles", "sram-reads", "rd/cyc", "energy-uJ", "power-mW", "area-mm2")
	for _, pes := range []int{2, 8, 32, 128, 256, 512} {
		for _, kind := range []noc.Kind{noc.PointToPoint, noc.MulticastTree} {
			eng := eve.New(eve.DefaultConfig(pes, kind), nil)
			eng.RunGeneration(g)
			rep := eng.Counters().Snapshot()

			soCfg := energy.DefaultSoC()
			soCfg.NumEvEPEs = pes
			soCfg.Multicast = kind == noc.MulticastTree
			fmt.Printf("%-5d %-15s %-12d %-12d %-10.1f %-9.2f %-9.0f %-9.2f\n",
				pes, kind, rep.Int("stream_cycles"), rep.Int("sram_reads"),
				rep.Float("reads_per_cycle"), rep.Float("energy_pj")/1e6,
				soCfg.RooflinePower().Total, soCfg.Area().Total)
		}
	}

	fmt.Println("\nreading the table:")
	fmt.Println(" - multicast cuts SRAM reads by the parent-reuse factor (Fig. 11b);")
	fmt.Println(" - more PEs co-schedule siblings, so reads and cycles both fall (Fig. 11c);")
	fmt.Println(" - the paper picks 256 PEs + multicast: under 1 W, 2.45 mm2 (Fig. 8).")
}
