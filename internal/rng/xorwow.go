// Package rng implements the XOR-WOW pseudo-random number generator used
// by the EvE processing elements in the GeneSys SoC.
//
// The paper (Section IV-C4) specifies that each PE is fed 8-bit random
// numbers every cycle from a PRNG implementing the XOR-WOW algorithm, the
// same generator family used inside NVIDIA GPUs (Marsaglia, "Xorshift
// RNGs", 2003). This package provides that generator along with the
// convenience draws the rest of the system needs (uniform floats,
// Gaussians, bounded integers) so that every stochastic decision in the
// repository flows from one well-defined, seedable entropy source.
package rng

import "math"

// XorWow is a Marsaglia xorwow generator: five 32-bit xorshift words plus
// a Weyl counter. Its period is 2^192 - 2^32. The zero value is not a
// valid generator; use New.
type XorWow struct {
	x, y, z, w, v uint32
	d             uint32 // Weyl sequence counter
	gauss         float64
	hasGauss      bool
}

// New returns a generator seeded from a single 64-bit seed. The seed is
// expanded into the five state words with a splitmix64 sequence so that
// nearby seeds produce uncorrelated streams.
func New(seed uint64) *XorWow {
	g := &XorWow{}
	g.Seed(seed)
	return g
}

// Mix64 is the splitmix64 finalizer: a bijection of x whose outputs
// for nearby inputs are uncorrelated. Callers form x from their own
// seed and salted index; the finalizer is the shared part.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Seed resets the generator state from a 64-bit seed.
func (g *XorWow) Seed(seed uint64) {
	s := seed
	next := func() uint32 {
		// splitmix64 step, truncated to 32 bits.
		s += 0x9E3779B97F4A7C15
		return uint32(Mix64(s))
	}
	g.x, g.y, g.z, g.w, g.v = next(), next(), next(), next(), next()
	// Guard against the (astronomically unlikely) all-zero xorshift state.
	if g.x|g.y|g.z|g.w|g.v == 0 {
		g.v = 0x6C078965
	}
	g.d = next()
	g.hasGauss = false
}

// State is a serializable snapshot of a generator. It exists so long
// runs can checkpoint mid-stream and resume bit-identically: restoring
// a State continues the exact output sequence where the snapshot left
// off, which re-seeding cannot do.
type State struct {
	X        uint32  `json:"x"`
	Y        uint32  `json:"y"`
	Z        uint32  `json:"z"`
	W        uint32  `json:"w"`
	V        uint32  `json:"v"`
	D        uint32  `json:"d"`
	Gauss    float64 `json:"gauss,omitempty"`
	HasGauss bool    `json:"has_gauss,omitempty"`
}

// State snapshots the generator.
func (g *XorWow) State() State {
	return State{X: g.x, Y: g.y, Z: g.z, W: g.w, V: g.v, D: g.d,
		Gauss: g.gauss, HasGauss: g.hasGauss}
}

// SetState restores a snapshot taken with State. An all-zero xorshift
// state (never produced by a live generator) is repaired the same way
// Seed repairs it, so a corrupt snapshot cannot brick the stream.
func (g *XorWow) SetState(s State) {
	g.x, g.y, g.z, g.w, g.v = s.X, s.Y, s.Z, s.W, s.V
	if g.x|g.y|g.z|g.w|g.v == 0 {
		g.v = 0x6C078965
	}
	g.d = s.D
	g.gauss = s.Gauss
	g.hasGauss = s.HasGauss
}

// Split returns a new generator whose stream is decorrelated from g's.
// It is used to hand independent streams to the per-PE PRNGs without
// sharing state, mirroring the per-PE PRNG blocks in the chip.
func (g *XorWow) Split() *XorWow {
	return New(uint64(g.Uint32())<<32 | uint64(g.Uint32()))
}

// Uint32 advances the generator and returns the next 32-bit output.
func (g *XorWow) Uint32() uint32 {
	t := g.x ^ (g.x >> 2)
	g.x, g.y, g.z, g.w = g.y, g.z, g.w, g.v
	g.v = (g.v ^ (g.v << 4)) ^ (t ^ (t << 1))
	g.d += 362437
	return g.v + g.d
}

// Byte returns the next 8-bit output — the quantity delivered to each EvE
// PE every cycle in the hardware.
func (g *XorWow) Byte() uint8 {
	return uint8(g.Uint32() >> 24)
}

// Uint64 returns a 64-bit value composed of two successive 32-bit draws.
func (g *XorWow) Uint64() uint64 {
	hi := uint64(g.Uint32())
	lo := uint64(g.Uint32())
	return hi<<32 | lo
}

// Float64 returns a uniform float64 in [0, 1).
func (g *XorWow) Float64() float64 {
	// 53 random bits / 2^53.
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *XorWow) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(g.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (g *XorWow) Bool(p float64) bool {
	return g.Float64() < p
}

// Range returns a uniform float64 in [lo, hi).
func (g *XorWow) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*g.Float64()
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method. The perturbation mutation in NEAT draws Gaussian deltas.
func (g *XorWow) NormFloat64() float64 {
	if g.hasGauss {
		g.hasGauss = false
		return g.gauss
	}
	for {
		u := 2*g.Float64() - 1
		v := 2*g.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		g.gauss = v * f
		g.hasGauss = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (g *XorWow) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
