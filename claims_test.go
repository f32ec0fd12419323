package repro

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// series is one figure's (or ablation's) named values.
type series = map[string][]float64

// claim is one statement of the paper checked against this
// reproduction: a value read from one figure's series must fall in the
// band [lo, hi].
//
// Bands come from the paper and from the value results/ holds. Rows on
// the headline figures (9a–9d, 10ab, 10d, 11b, 11c, Table II and the
// Fig. 4b/5a class ratios) are tight enough that a value a third or
// three times the measured one falls outside. A band holds the paper's
// value whenever that lies within 3× of the measured one; otherwise
// note says why it does not. Rows on evolution outcomes (Figs. 2, 4a,
// 4c, Footnote 1, Pareto) take their bands from the paper's
// qualitative claim, since any change to reproduction's random draws
// moves those numbers.
type claim struct {
	series string               // the value is this series' first value,
	value  func(series) float64 // unless value computes it
	lo, hi float64
	paper  string // the paper's statement
	doc    string // the EXPERIMENTS.md row it backs
	note   string // why the paper's value lies outside the band
}

// claims maps each experiment id (or ablation name) to its rows.
var claims = map[string][]claim{
	"table1": {
		{series: "obs:cartpole", lo: 4, hi: 4, paper: "CartPole observes 4 values", doc: "**Table I**"},
		{series: "obs:alien-ram", lo: 128, hi: 128, paper: "Atari RAM titles observe 128 bytes", doc: "**Table I**"},
		{series: "act:alien-ram", lo: 18, hi: 18, paper: "Alien has 18 actions", doc: "**Table I**"},
		{value: count("obs:"), lo: 10, hi: 10, paper: "the environment suite (10 with the Mario surrogate)", doc: "**Table I**"},
	},
	"fig2": {
		{value: of(growth, "max"), lo: 1.5, hi: math.Inf(1), paper: "max fitness rises over the generations", doc: "**Fig. 2**"},
		{value: func(s series) float64 {
			gap := math.Inf(-1)
			for i, avg := range s["avg"] {
				gap = math.Max(gap, avg-s["max"][i])
			}
			return gap
		}, lo: math.Inf(-1), hi: 1e-9, paper: "the average stays under the max every generation", doc: "**Fig. 2**"},
	},
	"fig4a": {
		{value: of(slices.Min, "cartpole:final", "lunarlander:final", "mountaincar:final"), lo: 1, hi: math.Inf(1),
			paper: "every control workload reaches its target", doc: "**Fig. 4a**"},
		{value: of(slices.Min, "asterix-ram:final"), lo: 0.1, hi: 1,
			paper: "RAM titles climb but need far longer budgets", doc: "**Fig. 4a**"},
	},
	"fig4b": {
		{value: ratio("alien-ram:genesPerGenome", "cartpole:genesPerGenome"), lo: 85, hi: 700,
			paper: "two classes: RAM ~1.1–1.2×10⁵ genes vs control ~10³", doc: "**Fig. 4b**"},
		{series: "alien-ram:genesPerGenome", lo: 2000, hi: 3000, paper: "RAM genomes at ~1.1–1.2×10⁵ genes per population of 150 (~770 per genome)", doc: "**Fig. 4b**",
			note: "our RAM genomes keep the fully connected 128×18 seed (2 304 connections + 146 nodes), 3× the paper's per-genome size"},
	},
	"fig4c": {
		{value: over(":maxReuse", slices.Max), lo: 10, hi: 80, paper: "the fittest parent is reused ~20× per generation, up to 80", doc: "**Fig. 4c**"},
	},
	"fig5a": {
		{value: ratio("alien-ram:medianOps", "cartpole:medianOps"), lo: 60, hi: 450,
			paper: "two classes: thousands vs hundred-thousands of ops", doc: "**Fig. 5a**"},
	},
	"fig5b": {
		{series: "cartpole:maxFootprint", lo: 1e3, hi: 1e6, paper: "under 1 MB per generation", doc: "**Fig. 5b**"},
		{value: over(":maxFootprint", slices.Max), lo: 5e5, hi: 4 << 20, paper: "under 1 MB per generation", doc: "**Fig. 5b**",
			note: "amidar-ram genomes stay fully connected, so the largest footprint reaches 1.7 MB; the genome buffer's DRAM backing covers it"},
	},
	"table2": {
		{series: "computeRatio", lo: 16, hi: 140, paper: "DQN 3M MACs + 680K gradients vs EA 115K + 135K ops (~15×)", doc: "**Table II**",
			note: "our DQN model charges 2.1M gradient ops per step, 3× the paper's 680K"},
		{series: "memoryRatio", lo: 40, hi: 300, paper: "DQN 54 MB vs EA under 1 MB (>54×)", doc: "**Table II**"},
	},
	"footnote1": {
		{series: "cartpole:neatEnd", lo: 195, hi: 200, paper: "NE converges on CartPole", doc: "**Footnote 1**"},
		{series: "mountaincar:dqnDelta", lo: 0, hi: 10, paper: "RL never converges on some environments (sparse-reward MountainCar)", doc: "**Footnote 1**"},
	},
	"table3": {
		{series: "configs", lo: 9, hi: 9, paper: "8 CPU/GPU baselines + GeneSys", doc: "**Table III**"},
	},
	"fig8a": {
		{series: "power", lo: 900, hi: 1000, paper: "947.5 mW roofline power", doc: "**Fig. 8a**"},
		{series: "area", lo: 2.2, hi: 2.6, paper: "2.45 mm² SoC", doc: "**Fig. 8a**"},
	},
	"fig8b": {
		{value: of(last, "net"), lo: 1100, hi: 1500, paper: "512 PEs draw over 1 W", doc: "**Fig. 8b**"},
		{value: of(rising, "net"), lo: 1, hi: 1, paper: "power rises monotonically with PEs", doc: "**Fig. 8b**"},
	},
	"fig8c": {
		{value: of(rising, "total"), lo: 1, hi: 1, paper: "area grows linearly with PEs over a fixed floor", doc: "**Fig. 8c**"},
	},
	"fig9a": {
		{value: over(":speedupVsBestGPU", median), lo: 80, hi: 400, paper: "GeneSys ~100× faster than the best GPU in inference", doc: "**Fig. 9a**"},
		{value: over(":speedupVsBestGPU", slices.Min), lo: 5, hi: 40, paper: "GeneSys beats the best GPU on every workload", doc: "**Fig. 9a**",
			note: "the paper's ~100× is a suite figure, not a per-workload floor; mountaincar is lowest here at 14.7×"},
		{series: "cartpole:cpuPLPSpeedup", lo: 3, hi: 4, paper: "3.5× from PLP on the CPU", doc: "**Fig. 9a**"},
	},
	"fig9b": {
		{value: over(":efficiencyVsBest", slices.Min), lo: 3000, hi: 20000, paper: "ADAM ~100× more energy-efficient in inference", doc: "**Fig. 9b**",
			note: "our baseline models charge Python-derived software costs, widening the gap past the paper's ~100×"},
	},
	"fig9c": {
		{series: "alien-ram:cpuSpeedup", lo: 2500, hi: 18000, paper: "evolution on the CPU is serial and slow", doc: "**Fig. 9c**"},
	},
	"fig9d": {
		{value: over(":evolutionEfficiency", slices.Min), lo: 5000, hi: 30000, paper: "EvE 4–5 orders of magnitude more energy-efficient than the GPUs", doc: "**Fig. 9d**"},
	},
	"fig10ab": {
		{value: over("GPU_a:", slices.Min), lo: 0.4, hi: 0.9, paper: "GPU_a spends ~70% of its time in memcpy", doc: "**Fig. 10a**"},
		{value: ratio("GPU_b:alien-ram:memcpyFrac", "GPU_a:cartpole:memcpyFrac"), lo: 20.0 / 70, hi: 0.99,
			paper: "GPU_b is less memcpy-bound (~20%) than GPU_a (~70%)", doc: "**Fig. 10b**"},
	},
	"fig10c": {
		{value: over(":movementFrac", slices.Min), lo: 0.02, hi: 0.3, paper: "~15% of GeneSys time is data movement, all on-chip", doc: "**Fig. 10c**"},
		{value: over(":movementFrac", slices.Max), lo: 0.15, hi: 0.9, paper: "~15% of GeneSys time is data movement, all on-chip", doc: "**Fig. 10c**"},
	},
	"fig10d": {
		{value: over(":genesys/gpuA", slices.Min), lo: 20, hi: 170, paper: "GeneSys holds ~100× GPU_a's footprint", doc: "**Fig. 10d**"},
		{value: over(":gpuB/genesys", slices.Min), lo: 6, hi: 45, paper: "GeneSys needs ~100× less memory than GPU_b", doc: "**Fig. 10d**",
			note: "GPU_b pads each genome to a node-id² tensor, and amidar-ram's node ids barely grow in 5 generations at pop 32 (61× at pop 150)"},
	},
	"fig11a": {
		{series: "alien-ram:connShare", lo: 60, hi: 100, paper: "RAM genomes are connection-dominated", doc: "**Fig. 11a**"},
	},
	"fig11b": {
		{value: of(last, "reduction"), lo: 3, hi: 25, paper: ">100× fewer SRAM reads with multicast", doc: "**Fig. 11b**",
			note: "the reduction is bounded by parent instances over distinct parents, which grows with population (9.6× at pop 150)"},
		{value: of(growth, "reduction"), lo: 2, hi: 16,
			paper: "the multicast win grows with PE count", doc: "**Fig. 11b**"},
	},
	"fig11c": {
		{value: of(fall, "eveCycles"), lo: 6, hi: 40,
			paper: "evolution is compute-bound at low PE counts", doc: "**Fig. 11c**"},
		{value: of(fall, "sramUJ"), lo: 1.1, hi: 5,
			paper: "SRAM energy falls with PE count", doc: "**Fig. 11c**"},
	},
	"pareto": {
		{value: over(":frontSize", slices.Min), lo: 1, hi: 64, paper: "every front is non-empty and no larger than the population", doc: "**Pareto fronts**"},
		{value: over(":frontSize", slices.Max), lo: 1, hi: 64, paper: "every front is non-empty and no larger than the population", doc: "**Pareto fronts**"},
	},
	"resilience": {
		{series: "slowdown:unprotected", lo: 1, hi: 1, paper: "a fault-free chip pays no slowdown", doc: "**Hardware degradation table**"},
		{series: "energy_overhead:unprotected", lo: 1, hi: 1, paper: "a fault-free chip pays no energy overhead", doc: "**Hardware degradation table**"},
	},
	"pe-allocation": {
		{series: "fifo/greedy-reads", lo: 1, hi: 4, paper: "greedy allocation reads no more SRAM than FIFO", doc: "Greedy vs FIFO PE allocation"},
	},
	"noc": {
		{series: "p2p/mcast-reads", lo: 3, hi: 25, paper: "multicast reads less SRAM than point-to-point", doc: "Multicast vs p2p at engine level"},
	},
	"adam-scheduling": {
		{series: "serial/packed-cycles", lo: 50, hi: 400, paper: "packed scheduling takes fewer cycles than serial", doc: "Packed vs serial ADAM scheduling"},
	},
	"buffer-spill": {
		{series: "spill-energy-x", lo: 25, hi: 225, paper: "spilling the genome buffer to DRAM costs energy", doc: "Genome-buffer DRAM spill"},
	},
	"indirect-encoding": {
		{series: "genes-compression-x", lo: 350, hi: 3200, paper: "a CPPN compresses a RAM-scale genome at least 50×", doc: "CPPN indirect encoding"},
	},
	"quantization": {
		{series: "max-output-error", lo: 0, hi: 0.05, paper: "64-bit gene words keep inference within 0.05", doc: "64-bit gene quantization"},
	},
}

// TestPaperClaims regenerates every figure at the results/ scale in one
// run over a shared cache, compares each rendering with results/ byte
// for byte, measures the ablations, and checks every claims row.
func TestPaperClaims(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]series{}
	err = experiments.RunAll(experiments.IDs(), benchOpt(), func(o experiments.Outcome) {
		if o.Err != nil {
			return // reported by RunAll's error
		}
		got[o.ID] = o.Res.Series
		if len(claims[o.ID]) == 0 {
			t.Errorf("%s: no claims row", o.ID)
		}
		var buf bytes.Buffer
		if err := o.Res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("results", o.ID+".txt"))
		if err != nil {
			t.Errorf("%s: %v", o.ID, err)
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: rendering differs from results/%s.txt (regenerate with go test -run=NONE -bench=Figures -benchtime=1x .)", o.ID, o.ID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ablationTrace(t)
	for _, a := range ablations {
		if len(claims[a.name]) == 0 {
			continue
		}
		got[a.name] = series{}
		for k, v := range a.measure(t, g) {
			got[a.name][k] = []float64{v}
		}
	}

	ids := make([]string, 0, len(claims))
	for id := range claims {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			s, ok := got[id]
			if !ok {
				t.Fatalf("no figure or ablation %q", id)
			}
			for _, c := range claims[id] {
				if !bytes.Contains(doc, []byte(c.doc)) {
					t.Errorf("EXPERIMENTS.md has no row %q", c.doc)
				}
				v := first(s, c.series)
				if c.value != nil {
					v = c.value(s)
				}
				t.Logf("%.4g in [%.4g, %.4g]: %s", v, c.lo, c.hi, c.paper)
				if !(v >= c.lo && v <= c.hi) {
					t.Errorf("%s = %.4g outside [%.4g, %.4g]; paper: %s (%s)", c.doc, v, c.lo, c.hi, c.paper, c.note)
				}
			}
		})
	}
}

// over applies agg to every value of the series whose names contain
// part.
func over(part string, agg func([]float64) float64) func(series) float64 {
	return func(s series) float64 {
		var names []string
		for name := range s {
			if strings.Contains(name, part) {
				names = append(names, name)
			}
		}
		return of(agg, names...)(s)
	}
}

// of applies f to every value of the named series, in order.
func of(f func([]float64) float64, names ...string) func(series) float64 {
	return func(s series) float64 {
		var xs []float64
		for _, name := range names {
			xs = append(xs, s[name]...)
		}
		if len(xs) == 0 {
			return math.NaN()
		}
		return f(xs)
	}
}

// first is a series' first value, NaN when it has none.
func first(s series, name string) float64 {
	if len(s[name]) == 0 {
		return math.NaN()
	}
	return s[name][0]
}

// ratio divides the first values of two series.
func ratio(num, den string) func(series) float64 {
	return func(s series) float64 { return first(s, num) / first(s, den) }
}

// count is the number of series whose name starts with prefix.
func count(prefix string) func(series) float64 {
	return func(s series) float64 {
		n := 0
		for name := range s {
			if strings.HasPrefix(name, prefix) {
				n++
			}
		}
		return float64(n)
	}
}

// growth is a sweep's last value over its first; fall the inverse.
func growth(xs []float64) float64 { return last(xs) / xs[0] }
func fall(xs []float64) float64   { return xs[0] / last(xs) }

// rising is 1 when xs strictly increases point to point, else 0.
func rising(xs []float64) float64 {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return 0
		}
	}
	return 1
}

func last(xs []float64) float64 { return xs[len(xs)-1] }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
