package experiments

import (
	"fmt"
	"math"

	"repro/internal/gene"
	"repro/internal/hw/adam"
	"repro/internal/hw/energy"
	"repro/internal/hw/fault"
	"repro/internal/hw/soc"
	"repro/internal/rng"
)

func init() {
	register("resilience", func(opt Options) (*Result, error) {
		return ResilienceFor("cartpole", opt)
	})
}

// resilienceRates is the per-event fault-rate sweep: from a healthy
// chip through always-on soft-error territory to a badly degraded
// part.
var resilienceRates = []float64{0, 1e-5, 1e-4, 1e-3, 1e-2}

// doubleBitFraction is the share of flipped words carrying a second
// flip (the SECDED-uncorrectable tail) used throughout the sweep.
const doubleBitFraction = 0.1

// ResilienceFor characterizes one workload's degradation under the
// fault model: the hardware cost of protection (cycles and energy of
// an ECC-protected chip vs. an unprotected one at each fault rate,
// with the reliability ledger alongside) and the software cost of
// *not* protecting (fitness of the evolved champion when its weights
// are corrupted at the silent-error rate each scheme lets through).
// Everything is seeded, so the same Options reproduce the same fault
// sites and the same table.
func ResilienceFor(workload string, opt Options) (*Result, error) {
	e, err := runWorkload(workload, opt, 0)
	if err != nil {
		return nil, err
	}
	jobs, err := adam.JobsFor(e.runner.Pop.Genomes, 1)
	if err != nil {
		return nil, err
	}
	g := e.trace.Last()
	if g == nil {
		return nil, fmt.Errorf("resilience: %s produced no reproduction trace", workload)
	}
	footprint := e.runner.Pop.FootprintBytes()

	r := &Result{ID: "resilience", Title: "Degradation & protection overhead vs fault rate (" + workload + ")"}

	// Hardware sweep: the same generation replayed on chips that only
	// differ in fault environment and protection scheme.
	hw := Table{
		Title: "SoC overhead: unprotected vs SECDED (same generation, same seed)",
		Header: []string{"rate", "ecc", "cycles", "slowdown", "energy-uJ", "en-ovh",
			"silent", "corrected", "uncorr", "lost-flits", "dead-PEs"},
	}
	var baseCycles int64
	var baseEnergy float64
	for _, rate := range resilienceRates {
		for _, scheme := range []fault.ECC{fault.Unprotected, fault.SECDED} {
			if rate == 0 && scheme != fault.Unprotected {
				continue // a zero-rate chip builds no fault plan at all
			}
			soCfg := energy.DefaultSoC()
			soCfg.Fault = fault.Config{
				Seed:              opt.Seed,
				SRAMWordFlip:      rate,
				DoubleBitFraction: doubleBitFraction,
				ECC:               scheme,
				NoCFlitDrop:       rate,
				PEStuckAt:         rate,
			}
			chip := soc.New(soCfg)
			chip.RunGeneration(jobs, g, footprint)
			snap := chip.Snapshot()
			// The chip's energy_pj charges EvE's SRAM at logical access
			// counts; the buffer's counter node also carries recovery
			// accesses and ECC code bits. Substitute it in for the true
			// cost.
			energyPJ := snap.Float("energy_pj") - snap.Float("eve/sram_energy_pj") +
				snap.Float("sram/energy_pj")
			cycles := snap.Int("total_cycles")
			if rate == 0 {
				baseCycles = cycles
				baseEnergy = energyPJ
			}
			slowdown, enOvh := 1.0, 1.0
			if baseCycles > 0 {
				slowdown = float64(cycles) / float64(baseCycles)
			}
			if baseEnergy > 0 {
				enOvh = energyPJ / baseEnergy
			}
			hw.Rows = append(hw.Rows, []string{
				fnum(rate), scheme.String(),
				inum(cycles), fnum(slowdown),
				fnum(energyPJ / 1e6), fnum(enOvh),
				inum(snap.Int("fault/sram/silent_errors")),
				inum(snap.Int("fault/sram/corrected_words")),
				inum(snap.Int("fault/sram/uncorrectable_words")),
				inum(snap.Int("fault/noc/lost_flits")),
				inum(snap.Int("fault/eve/dead_pes")),
			})
			r.series(fmt.Sprintf("slowdown:%s", scheme), slowdown)
			r.series(fmt.Sprintf("energy_overhead:%s", scheme), enOvh)
			r.series(fmt.Sprintf("silent:%s", scheme),
				float64(snap.Int("fault/sram/silent_errors")))
		}
	}
	hw.Notes = append(hw.Notes,
		"slowdown/en-ovh are relative to the rate-0 chip; SECDED pays code bits and scrubs, unprotected pays nothing but accumulates silent errors")
	r.Tables = append(r.Tables, hw)

	// Software sweep: corrupt the evolved champion's weights at the
	// silent-error rate each scheme passes through, and re-score it.
	best := e.runner.Pop.Best()
	if best == nil {
		return r, nil
	}
	sw := Table{
		Title:  "Champion fitness under silent weight corruption",
		Header: []string{"rate", "scheme", "silent-rate", "flipped", "fitness", "retained"},
	}
	baseFit, err := e.runner.ScoreGenome(opt.ctx(), best)
	if err != nil {
		return nil, err
	}
	for _, rate := range resilienceRates {
		for _, scheme := range []fault.ECC{fault.Unprotected, fault.SECDED} {
			// Unprotected lets every flip through; SECDED only the
			// double-bit tail.
			silent := rate
			if scheme == fault.SECDED {
				silent = rate * doubleBitFraction
			}
			corrupted, flipped := corruptWeights(best, silent, opt.Seed)
			fit := baseFit
			if flipped > 0 {
				if fit, err = e.runner.ScoreGenome(opt.ctx(), corrupted); err != nil {
					return nil, err
				}
			}
			retained := 1.0
			if baseFit != 0 {
				retained = fit / baseFit
			}
			sw.Rows = append(sw.Rows, []string{
				fnum(rate), scheme.String(), fnum(silent), inum(flipped),
				fnum(fit), fnum(retained),
			})
			r.series(fmt.Sprintf("retained:%s", scheme), retained)
			if rate == 0 && scheme == fault.Unprotected {
				break // one baseline row is enough at rate 0
			}
		}
	}
	sw.Notes = append(sw.Notes,
		fmt.Sprintf("baseline fitness %s; corruption flips one seeded bit per struck weight (sign/exponent/mantissa alike)", fnum(baseFit)))
	r.Tables = append(r.Tables, sw)
	return r, nil
}

// corruptWeights flips one deterministic bit in each connection weight
// struck at the given per-weight rate (splitmix64 over seed and the
// gene index, the same construction the hardware injector uses). It
// returns a corrupted clone and the number of struck weights; rate 0
// returns the genome unharmed.
func corruptWeights(g *gene.Genome, rate float64, seed uint64) (*gene.Genome, int) {
	if rate <= 0 {
		return g, 0
	}
	c := g.Clone()
	flipped := 0
	for i := range c.Conns {
		u, bit := weightDraw(seed, uint64(i))
		if u >= rate {
			continue
		}
		c.Conns[i].Weight = math.Float64frombits(
			math.Float64bits(c.Conns[i].Weight) ^ (1 << bit))
		flipped++
	}
	return c, flipped
}

// weightDraw yields the strike decision and bit position for one
// weight: a splitmix64 finalizer, uniform in [0,1) plus a bit index.
func weightDraw(seed, i uint64) (float64, uint) {
	x := rng.Mix64(seed ^ 0xA3EC647659359ACD ^ i*0xD1B54A32D192ED03)
	return float64(x>>11) / (1 << 53), uint(x & 63)
}
