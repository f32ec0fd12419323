// Command socreplay replays a reproduction trace (produced by
// `characterize -trace`) through the EvE hardware model at an arbitrary
// design point — the paper's trace-driven evaluation methodology as a
// standalone tool.
//
// Usage:
//
//	characterize -workload alien-ram -generations 5 -trace alien.trace
//	socreplay -trace alien.trace -pes 256 -noc multicast
//	socreplay -trace alien.trace -pes 8 -noc p2p -alloc fifo
//	socreplay -trace alien.trace -json counters.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/hw/eve"
	"repro/internal/hw/hwsim"
	"repro/internal/hw/noc"
	"repro/internal/serve/signalctx"
	"repro/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file to replay (required)")
		pes       = flag.Int("pes", 256, "EvE PE count")
		nocKind   = flag.String("noc", "multicast", "interconnect: multicast | p2p")
		alloc     = flag.String("alloc", "greedy", "PE allocation: greedy | fifo")
		jsonOut   = flag.String("json", "", "write the per-generation counter trees to this file as JSON")
	)
	flag.Parse()
	if *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Ctrl-C or SIGTERM stops the replay at the next generation
	// boundary; totals and -json output still flush for the partial
	// replay.
	ctx, stop := signalctx.Notify(context.Background())
	defer stop()

	f, err := os.Open(*tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "socreplay:", err)
		os.Exit(1)
	}
	tr, err := trace.Parse(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "socreplay:", err)
		os.Exit(1)
	}

	kind := noc.MulticastTree
	switch *nocKind {
	case "multicast":
	case "p2p":
		kind = noc.PointToPoint
	default:
		fmt.Fprintf(os.Stderr, "socreplay: unknown noc %q\n", *nocKind)
		os.Exit(2)
	}
	cfg := eve.DefaultConfig(*pes, kind)
	switch *alloc {
	case "greedy":
		cfg.Allocation = eve.AllocGreedy
	case "fifo":
		cfg.Allocation = eve.AllocFIFO
	default:
		fmt.Fprintf(os.Stderr, "socreplay: unknown allocation %q\n", *alloc)
		os.Exit(2)
	}

	engine := eve.New(cfg, nil)
	fmt.Printf("replaying %s: %d generations on %d PEs, %s NoC, %s allocation\n\n",
		*tracePath, len(tr.Generations), *pes, kind, cfg.Allocation)
	fmt.Printf("%-4s %-9s %-8s %-11s %-11s %-9s %-9s %-7s\n",
		"gen", "children", "waves", "cycles", "sram-rd", "sram-wr", "uJ", "util%")
	var totCycles int64
	var totEnergy float64
	var records []hwsim.Record
	for i := range tr.Generations {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "socreplay: interrupted; flushing partial replay")
			break
		}
		g := &tr.Generations[i]
		// Reset per generation so each snapshot is that generation's own
		// counter ledger, not a running total.
		engine.Reset()
		engine.RunGeneration(g)
		r := engine.Counters().Snapshot()
		totCycles += r.Int("total_cycles")
		totEnergy += r.Float("energy_pj")
		fmt.Printf("%-4d %-9d %-8d %-11d %-11d %-9d %-9.2f %-7.1f\n",
			g.Index, r.Int("children"), r.Int("waves"), r.Int("total_cycles"),
			r.Int("sram_reads"), r.Int("sram_writes"),
			r.Float("energy_pj")/1e6, r.Float("utilization")*100)
		if *jsonOut != "" {
			records = append(records, hwsim.Record{Generation: g.Index, Report: r})
		}
	}
	fmt.Printf("\ntotal: %d cycles (%.3f ms @200MHz), %.2f uJ\n",
		totCycles, float64(totCycles)/200e6*1e3, totEnergy/1e6)

	if *jsonOut != "" {
		data, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "socreplay:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "socreplay:", err)
			os.Exit(1)
		}
		fmt.Printf("counters: %d generation trees written to %s\n", len(records), *jsonOut)
	}
}
