// Package fault is the reliability model of the GeneSys SoC: a seeded,
// deterministic fault injector for the physical substrate an always-on
// edge chip actually lives on — SRAM soft errors in the genome buffer,
// flit loss on the EvE interconnect, and hard (stuck-at) failures of
// EvE processing elements — together with the bookkeeping scopes the
// protection models charge their recovery work into.
//
// Design:
//
//   - Config is plain data on energy.SoCConfig. The zero value means a
//     perfect chip: no Plan is built, no counters appear, and every
//     hardware model is byte-identical to the fault-free stack.
//   - Plan is the live injector one chip instance owns. Every fault
//     decision is a pure function of (Config.Seed, stream id, event
//     index), so two chips with the same seed replaying the same work
//     suffer identical fault sites — fault sweeps are reproducible and
//     a re-run of a study sees the same broken bits.
//   - Plan owns a hwsim counter node named "fault". The SoC adopts it,
//     so every detection/correction/retransmission shows up in the chip
//     snapshot under "soc/fault/sram", "soc/fault/noc" and
//     "soc/fault/eve" — a full reliability ledger next to the
//     performance ledger.
//
// The protection models themselves live with the blocks they protect:
// ECC in sram.Buffer, bounded retransmit in noc.Network, PE remapping
// in eve.Engine. This package only decides *where* faults strike and
// owns the ledger they are reported in.
//
// Determinism contract: fault draws are sequenced by per-stream atomic
// indices, so a deterministic access sequence yields deterministic
// fault sites. The SoC models issue accesses serially per chip; a
// buffer shared across concurrently-running chips would interleave
// draws nondeterministically — give each parallel design point its own
// Plan (its own chip), as soc.New does.
package fault

import (
	"sync/atomic"

	"repro/internal/hw/hwsim"
	"repro/internal/rng"
)

// ECC selects the genome-buffer protection scheme.
type ECC int

// Protection schemes.
const (
	// Unprotected stores bare words: every bit flip is a silent error.
	Unprotected ECC = iota
	// Parity adds one parity bit per 64-bit word: single-bit flips are
	// detected (and re-read to confirm) but cannot be corrected.
	Parity
	// SECDED adds an 8-bit Hamming code per 64-bit word: single-bit
	// flips are corrected with a read-modify-write scrub; double-bit
	// flips are detected but uncorrectable.
	SECDED
)

// String names the scheme.
func (e ECC) String() string {
	switch e {
	case Parity:
		return "parity"
	case SECDED:
		return "secded"
	default:
		return "unprotected"
	}
}

// CodeOverhead is the extra-bit fraction the scheme adds to every
// access (check bits per 64-bit word).
func (e ECC) CodeOverhead() float64 {
	switch e {
	case Parity:
		return 1.0 / 64
	case SECDED:
		return 8.0 / 64
	default:
		return 0
	}
}

// Config fixes the fault environment of one chip. All rates are
// per-event probabilities; the zero value disables injection entirely.
type Config struct {
	// Seed drives every fault-site decision. Two chips with equal
	// Config replay identical faults for identical work.
	Seed uint64

	// SRAMWordFlip is the probability that one genome-buffer word
	// access returns a word with a flipped bit.
	SRAMWordFlip float64
	// DoubleBitFraction is the conditional probability that a flipped
	// word has a second flipped bit (the SECDED-uncorrectable case).
	DoubleBitFraction float64
	// ECC selects the buffer protection scheme (modeled only when
	// injection is enabled).
	ECC ECC

	// NoCFlitDrop is the probability that one gene delivery (flit) is
	// dropped in the EvE interconnect and must be retransmitted.
	NoCFlitDrop float64
	// MaxRetries bounds NoC retransmission attempts per wave; flits
	// still outstanding afterwards are lost. 0 selects the default (3).
	MaxRetries int
	// RetryBackoffCycles is the base backoff charged before each
	// retransmission attempt (doubling per attempt). 0 selects the
	// default (8).
	RetryBackoffCycles int

	// PEStuckAt is the probability that one EvE PE is dead (stuck-at
	// fault) for the chip's whole lifetime. Its children are
	// re-dispatched to live PEs.
	PEStuckAt float64
}

// Enabled reports whether any fault injection is configured. A false
// return is the contract that the whole fault layer is a no-op.
func (c Config) Enabled() bool {
	return c.SRAMWordFlip > 0 || c.NoCFlitDrop > 0 || c.PEStuckAt > 0
}

// MaxRetriesOrDefault returns the bounded retransmit budget.
func (c Config) MaxRetriesOrDefault() int {
	if c.MaxRetries <= 0 {
		return 3
	}
	return c.MaxRetries
}

// BackoffCyclesOrDefault returns the base retransmit backoff.
func (c Config) BackoffCyclesOrDefault() int64 {
	if c.RetryBackoffCycles <= 0 {
		return 8
	}
	return int64(c.RetryBackoffCycles)
}

// Stream ids separate the independent fault sequences. Each stream has
// its own event index so injection in one component never perturbs the
// sites in another.
const (
	streamSRAM uint64 = iota + 1
	streamSRAMDouble
	streamNoC
	streamPE
)

// Plan is one chip's live fault injector and reliability ledger.
type Plan struct {
	cfg Config
	ctr *hwsim.Counters

	sramC, nocC, eveC *hwsim.Counters

	sramIdx, dblIdx, nocIdx atomic.Uint64
}

// NewPlan builds the injector for a fault environment.
func NewPlan(cfg Config) *Plan {
	p := &Plan{cfg: cfg, ctr: hwsim.New("fault")}
	p.sramC = p.ctr.Child("sram")
	p.nocC = p.ctr.Child("noc")
	p.eveC = p.ctr.Child("eve")
	return p
}

// Config returns the fault environment.
func (p *Plan) Config() Config { return p.cfg }

// Counters returns the live reliability ledger root.
func (p *Plan) Counters() *hwsim.Counters { return p.ctr }

// Reset zeroes the ledger. The injector's event indices keep
// advancing: a per-generation ledger reset does not replay faults.
func (p *Plan) Reset() { p.ctr.Reset() }

// SRAMCounters is the "fault/sram" scope the buffer's ECC model
// charges detection, correction and scrub work into.
func (p *Plan) SRAMCounters() *hwsim.Counters { return p.sramC }

// NoCCounters is the "fault/noc" scope the retransmit model charges.
func (p *Plan) NoCCounters() *hwsim.Counters { return p.nocC }

// EvECounters is the "fault/eve" scope the PE-remap model charges.
func (p *Plan) EvECounters() *hwsim.Counters { return p.eveC }

// uniform returns a deterministic draw in [0, 1) for event i of the
// given stream: a splitmix64 finalizer over (seed, stream, index).
func (p *Plan) uniform(stream, i uint64) float64 {
	x := rng.Mix64(p.cfg.Seed ^ stream*0x9E3779B97F4A7C15 ^ i*0xD1B54A32D192ED03)
	return float64(x>>11) / (1 << 53)
}

// count converts a batch of n events with per-event probability rate
// into a fault count: the expectation, with the fractional remainder
// resolved by one deterministic draw from the stream. This matches the
// batch granularity the analytical models account at while keeping the
// long-run rate exact.
func (p *Plan) count(stream uint64, idx *atomic.Uint64, rate float64, n int64) int64 {
	if rate <= 0 || n <= 0 {
		return 0
	}
	exp := float64(n) * rate
	k := int64(exp)
	if p.uniform(stream, idx.Add(1)) < exp-float64(k) {
		k++
	}
	if k > n {
		k = n
	}
	return k
}

// SRAMFlips draws how many of n word accesses return a flipped word,
// charging the raw event to the ledger.
func (p *Plan) SRAMFlips(n int64) int64 {
	flips := p.count(streamSRAM, &p.sramIdx, p.cfg.SRAMWordFlip, n)
	if flips > 0 {
		p.sramC.AddInt("flipped_words", flips)
	}
	return flips
}

// SRAMDoubleFlips draws how many of the flipped words carry a second
// flipped bit (uncorrectable under SECDED).
func (p *Plan) SRAMDoubleFlips(flips int64) int64 {
	return p.count(streamSRAMDouble, &p.dblIdx, p.cfg.DoubleBitFraction, flips)
}

// NoCDrops draws how many of n flit deliveries are dropped, charging
// the raw event to the ledger.
func (p *Plan) NoCDrops(n int64) int64 {
	drops := p.count(streamNoC, &p.nocIdx, p.cfg.NoCFlitDrop, n)
	if drops > 0 {
		p.nocC.AddInt("dropped_flits", drops)
	}
	return drops
}

// DeadPEs returns the stuck-at map for a pool of numPEs processing
// elements. The map is a pure function of the seed (lifetime hard
// faults, not transient ones), so every engine built on this plan
// agrees on which PEs are dead.
func (p *Plan) DeadPEs(numPEs int) []bool {
	dead := make([]bool, numPEs)
	if p.cfg.PEStuckAt <= 0 {
		return dead
	}
	for i := range dead {
		dead[i] = p.uniform(streamPE, uint64(i)) < p.cfg.PEStuckAt
	}
	return dead
}
