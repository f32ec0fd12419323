// Package sram models the genome buffer: the shared multi-banked SRAM
// that holds every genome of the current generation and feeds both EvE
// and ADAM (Fig. 6). The paper provisions 1.5 MB in 48 banks of 4096
// 64-bit entries, sized from the <1 MB-per-generation footprint of
// Section III-D1 and banked to exploit parent reuse and avoid conflicts
// while feeding ADAM.
//
// The model is an activity counter with bank-conflict accounting: the
// cycle models present their per-cycle access demand and the buffer
// reports how many cycles the banks need to serve it, while tallying
// accesses and energy. All activity lives in a hwsim counter node named
// "sram", so the buffer slots directly into a SoC component tree.
package sram

import (
	"fmt"
	"sync/atomic"

	"repro/internal/hw/fault"
	"repro/internal/hw/hwsim"
)

// Config fixes the buffer geometry.
type Config struct {
	Banks     int // number of independent banks
	Depth     int // 64-bit entries per bank
	AccessPJ  float64
	PortsEach int // accesses each bank serves per cycle (1 = single-ported)
}

// DefaultConfig is the paper's 48 × 4096 × 64-bit buffer.
func DefaultConfig() Config {
	return Config{Banks: 48, Depth: 4096, AccessPJ: 50, PortsEach: 1}
}

// CapacityWords returns total 64-bit capacity.
func (c Config) CapacityWords() int { return c.Banks * c.Depth }

// CapacityBytes returns total capacity in bytes.
func (c Config) CapacityBytes() int { return c.CapacityWords() * 8 }

// Buffer is the genome buffer activity model.
//
// Concurrency contract: Read, Write and EnergyPJ are safe for
// concurrent use (counters are atomic), so parallel design-point
// sweeps can charge one shared buffer without corruption. SetResidency
// is atomic too, but is not ordered with in-flight accesses — declare
// the generation's working set before issuing its accesses.
type Buffer struct {
	cfg Config
	ctr *hwsim.Counters

	reads, writes *hwsim.Int
	// conflictCycles counts extra cycles lost to bank conflicts.
	conflictCycles *hwsim.Int
	// spillWords counts accesses that missed on-chip capacity and went
	// to DRAM ("backed by DRAM for cases when the genomes do not fit").
	spillWords *hwsim.Int
	residency  atomic.Int64 // words currently allocated

	// faults, when attached, injects word bit-flips on reads and the
	// configured ECC scheme reacts: detection, correction scrubs and
	// code-bit energy are charged to the buffer and the fault ledger.
	faults *fault.Plan
	// eccPJ accumulates the code-bit (check-bit) energy overhead of
	// every protected access; registered only when ECC is modeled so a
	// fault-free buffer's snapshot is unchanged.
	eccPJ *hwsim.Float
}

// New returns an empty buffer with the given geometry.
func New(cfg Config) *Buffer {
	if cfg.Banks <= 0 || cfg.Depth <= 0 {
		panic(fmt.Sprintf("sram: bad geometry %+v", cfg))
	}
	if cfg.PortsEach <= 0 {
		cfg.PortsEach = 1
	}
	b := &Buffer{cfg: cfg, ctr: hwsim.New("sram")}
	b.reads = b.ctr.Int("reads")
	b.writes = b.ctr.Int("writes")
	b.conflictCycles = b.ctr.Int("conflict_cycles")
	b.spillWords = b.ctr.Int("spill_words")
	b.ctr.OnSnapshot(func(c *hwsim.Counters) {
		c.SetFloat("energy_pj", b.EnergyPJ())
		c.SetInt("capacity_words", int64(cfg.CapacityWords()))
	})
	return b
}

// Config returns the geometry.
func (b *Buffer) Config() Config { return b.cfg }

// AttachFaults wires a fault plan into the buffer. Reads then suffer
// seeded word bit-flips, and the plan's ECC scheme determines the
// outcome per flipped word:
//
//   - Unprotected: the flip is a silent error (charged, not repaired);
//   - Parity: the flip is detected and confirmed by a re-read, but the
//     word stays uncorrectable;
//   - SECDED: single-bit flips are corrected by a read-modify-write
//     scrub (extra read + write traffic and cycles); double-bit flips
//     remain uncorrectable.
//
// Recovery traffic is charged to the buffer's own counters (so it
// appears in sram reads/writes/energy) and itemized under the plan's
// "fault/sram" scope. Passing nil detaches.
func (b *Buffer) AttachFaults(p *fault.Plan) {
	b.faults = p
	if p != nil && p.Config().ECC != fault.Unprotected {
		b.eccPJ = b.ctr.Float("ecc_overhead_pj")
	}
}

// Counters returns the buffer's live registry node.
func (b *Buffer) Counters() *hwsim.Counters { return b.ctr }

// SetResidency declares how many words the current generation occupies;
// accesses beyond capacity are charged as DRAM spills.
func (b *Buffer) SetResidency(words int) {
	if words < 0 {
		words = 0
	}
	b.residency.Store(int64(words))
}

// Resident reports whether the declared working set fits on-chip.
func (b *Buffer) Resident() bool {
	return b.residency.Load() <= int64(b.cfg.CapacityWords())
}

// spillFraction is the fraction of the working set that lives off-chip.
func (b *Buffer) spillFraction() float64 {
	cap := int64(b.cfg.CapacityWords())
	res := b.residency.Load()
	if res <= cap || res == 0 {
		return 0
	}
	return float64(res-cap) / float64(res)
}

// Read charges n word reads spread across banks and returns the cycles
// the banks need to serve them (bandwidth = Banks × PortsEach words per
// cycle; genomes are stored bank-interleaved so streaming reads load
// banks evenly).
func (b *Buffer) Read(n int64) int64 {
	return b.access(n, false)
}

// Write charges n word writes.
func (b *Buffer) Write(n int64) int64 {
	return b.access(n, true)
}

func (b *Buffer) access(n int64, write bool) int64 {
	if n <= 0 {
		return 0
	}
	if write {
		b.writes.Add(n)
	} else {
		b.reads.Add(n)
	}
	spilled := int64(float64(n) * b.spillFraction())
	b.spillWords.Add(spilled)

	bw := int64(b.cfg.Banks * b.cfg.PortsEach)
	cycles := (n + bw - 1) / bw
	// Perfectly interleaved streams would finish in n/bw cycles; the
	// residual partial cycle is the conflict cost we account.
	ideal := n / bw
	b.conflictCycles.Add(cycles - ideal)
	cycles += b.inject(n, write, bw)
	return cycles
}

// inject applies the attached fault plan to one access batch and
// returns the extra cycles the protection scheme spends recovering.
func (b *Buffer) inject(n int64, write bool, bw int64) int64 {
	p := b.faults
	if p == nil {
		return 0
	}
	cfg := p.Config()
	if b.eccPJ != nil {
		// Every protected access also reads/writes the check bits.
		b.eccPJ.Add(float64(n) * b.cfg.AccessPJ * cfg.ECC.CodeOverhead())
	}
	if write {
		// Flips manifest when a word is read back; writes just (re)encode.
		return 0
	}
	flips := p.SRAMFlips(n)
	if flips == 0 {
		return 0
	}
	fc := p.SRAMCounters()
	switch cfg.ECC {
	case fault.Parity:
		// Detect-only: one verification re-read per flagged word, then
		// the word is surfaced as uncorrectable.
		fc.AddInt("detected_errors", flips)
		fc.AddInt("uncorrectable_words", flips)
		fc.AddInt("recovery_reads", flips)
		b.reads.Add(flips)
		rec := (flips + bw - 1) / bw
		fc.AddInt("recovery_cycles", rec)
		return rec
	case fault.SECDED:
		double := p.SRAMDoubleFlips(flips)
		corrected := flips - double
		fc.AddInt("detected_errors", flips)
		fc.AddInt("corrected_words", corrected)
		fc.AddInt("uncorrectable_words", double)
		// Correction is a read-modify-write scrub per corrected word.
		fc.AddInt("recovery_reads", corrected)
		fc.AddInt("recovery_writes", corrected)
		b.reads.Add(corrected)
		b.writes.Add(corrected)
		rec := (2*corrected + bw - 1) / bw
		fc.AddInt("recovery_cycles", rec)
		return rec
	default:
		// No code bits: the flip sails through as corrupted data.
		fc.AddInt("silent_errors", flips)
		return 0
	}
}

// EnergyPJ returns the access energy consumed so far. DRAM spills are
// charged at 100× the SRAM access energy (the usual off-chip ratio);
// with ECC modeled, the check-bit overhead of every access is included.
func (b *Buffer) EnergyPJ() float64 {
	onChip := float64(b.reads.Load()+b.writes.Load()-b.spillWords.Load()) * b.cfg.AccessPJ
	offChip := float64(b.spillWords.Load()) * b.cfg.AccessPJ * 100
	total := onChip + offChip
	if b.eccPJ != nil {
		total += b.eccPJ.Load()
	}
	return total
}

// Reset clears the activity counters (not the residency).
func (b *Buffer) Reset() {
	b.ctr.Reset()
}
