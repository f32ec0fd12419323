// Package hwsim is the accounting kernel shared by every hardware
// model in the SoC stack. It provides two pieces:
//
//   - Counters: a hierarchical, race-safe registry of named int64 and
//     float64 counters. Each hardware block owns one node; nodes nest
//     (soc/eve/pe, soc/adam, soc/sram, ...) so a whole chip is one
//     tree with a single uniform ledger for cycles, ops, traffic and
//     energy-pJ.
//   - Report / Sink (report.go, sink.go): an immutable snapshot tree
//     that serializes to JSON, and the per-generation record stream
//     that carries snapshots to stats and the CLIs.
//
// Blocks charge raw counts as they run; every derived quantity (a
// ratio, an energy total, a time) is computed once, by the owning
// node's OnSnapshot hook, from the raw counts of the node and its
// children. A node's snapshot therefore accounts everything charged
// since its last Reset: call Reset before an interval (one generation,
// say) and Snapshot after it to read that interval's ledger.
//
// Counter naming scheme: snake_case leaf names; the unit is the name
// suffix (`*_cycles`, `*_pj`, `*_mw`, `*_mm2`, `*_bytes`); unsuffixed
// names are event or word counts. Node paths join child names with
// "/" and address a counter with a final path segment, e.g.
// "soc/eve/pe/gene_ops".
//
// Concurrency: all Counters methods are safe for concurrent use.
// Counter mutation is lock-free (atomics); name registration and tree
// edits take a per-node mutex. This is what lets a parallel design-
// point sweep charge one shared registry without corruption.
package hwsim

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Int is a race-safe integer counter.
type Int struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Int) Add(d int64) { c.v.Add(d) }

// Store overwrites the counter.
func (c *Int) Store(v int64) { c.v.Store(v) }

// Load returns the current value.
func (c *Int) Load() int64 { return c.v.Load() }

// Float is a race-safe float64 counter (CAS-accumulated).
type Float struct{ bits atomic.Uint64 }

// Add increments the counter by d.
func (c *Float) Add(d float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Store overwrites the counter.
func (c *Float) Store(v float64) { c.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (c *Float) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// Counters is one node of the hierarchical counter registry.
type Counters struct {
	name string

	mu       sync.Mutex
	ints     map[string]*Int
	floats   map[string]*Float
	children map[string]*Counters
	finalize func(*Counters)
}

// New returns an empty registry node.
func New(name string) *Counters { return &Counters{name: name} }

// Child returns the named child node, creating it on first use.
func (c *Counters) Child(name string) *Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.children[name]; ok {
		return ch
	}
	if c.children == nil {
		c.children = map[string]*Counters{}
	}
	ch := New(name)
	c.children[name] = ch
	return ch
}

// Adopt mounts an existing node (typically another block's root)
// as a child under its own name, replacing any previous child of that
// name. This is how assemblies compose sub-component trees without
// copying counters.
func (c *Counters) Adopt(child *Counters) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.children == nil {
		c.children = map[string]*Counters{}
	}
	c.children[child.name] = child
}

// Int returns the named integer counter, creating it on first use.
func (c *Counters) Int(name string) *Int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctr, ok := c.ints[name]; ok {
		return ctr
	}
	if c.ints == nil {
		c.ints = map[string]*Int{}
	}
	ctr := &Int{}
	c.ints[name] = ctr
	return ctr
}

// Float returns the named float counter, creating it on first use.
func (c *Counters) Float(name string) *Float {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctr, ok := c.floats[name]; ok {
		return ctr
	}
	if c.floats == nil {
		c.floats = map[string]*Float{}
	}
	ctr := &Float{}
	c.floats[name] = ctr
	return ctr
}

// AddInt increments the named integer counter.
func (c *Counters) AddInt(name string, d int64) { c.Int(name).Add(d) }

// AddFloat increments the named float counter.
func (c *Counters) AddFloat(name string, d float64) { c.Float(name).Add(d) }

// SetInt overwrites the named integer counter.
func (c *Counters) SetInt(name string, v int64) { c.Int(name).Store(v) }

// SetFloat overwrites the named float counter.
func (c *Counters) SetFloat(name string, v float64) { c.Float(name).Store(v) }

// IntValue reads the named integer counter (0 if never registered).
func (c *Counters) IntValue(name string) int64 {
	c.mu.Lock()
	ctr, ok := c.ints[name]
	c.mu.Unlock()
	if !ok {
		return 0
	}
	return ctr.Load()
}

// FloatValue reads the named float counter (0 if never registered).
func (c *Counters) FloatValue(name string) float64 {
	c.mu.Lock()
	ctr, ok := c.floats[name]
	c.mu.Unlock()
	if !ok {
		return 0
	}
	return ctr.Load()
}

// OnSnapshot registers a hook run on this node (after its children's
// hooks) at every Snapshot and Reset. Blocks use it to refresh derived
// metrics — ratios like utilization or reads-per-cycle, and static
// breakdowns like area — so snapshots are always self-consistent with
// the accumulated raw counters.
func (c *Counters) OnSnapshot(fn func(*Counters)) {
	c.mu.Lock()
	c.finalize = fn
	c.mu.Unlock()
}

// Reset zeroes every counter in this node and all descendants (the
// registered names survive), then re-runs snapshot hooks so derived
// and static values are rebuilt.
func (c *Counters) Reset() {
	c.zero()
	c.runFinalizers()
}

func (c *Counters) zero() {
	c.mu.Lock()
	ints := make([]*Int, 0, len(c.ints))
	for _, ctr := range c.ints {
		ints = append(ints, ctr)
	}
	floats := make([]*Float, 0, len(c.floats))
	for _, ctr := range c.floats {
		floats = append(floats, ctr)
	}
	children := make([]*Counters, 0, len(c.children))
	for _, ch := range c.children {
		children = append(children, ch)
	}
	c.mu.Unlock()
	for _, ctr := range ints {
		ctr.Store(0)
	}
	for _, ctr := range floats {
		ctr.Store(0)
	}
	for _, ch := range children {
		ch.zero()
	}
}

func (c *Counters) runFinalizers() {
	c.mu.Lock()
	fn := c.finalize
	children := make([]*Counters, 0, len(c.children))
	for _, ch := range c.children {
		children = append(children, ch)
	}
	c.mu.Unlock()
	for _, ch := range children {
		ch.runFinalizers()
	}
	if fn != nil {
		fn(c)
	}
}

// Snapshot runs the snapshot hooks bottom-up and returns an immutable
// copy of the subtree, with children sorted by name for deterministic
// serialization.
func (c *Counters) Snapshot() Report {
	c.runFinalizers()
	return c.snapshot()
}

func (c *Counters) snapshot() Report {
	c.mu.Lock()
	r := Report{Name: c.name}
	if len(c.ints) > 0 {
		r.Ints = make(map[string]int64, len(c.ints))
		for name, ctr := range c.ints {
			r.Ints[name] = ctr.Load()
		}
	}
	if len(c.floats) > 0 {
		r.Floats = make(map[string]float64, len(c.floats))
		for name, ctr := range c.floats {
			r.Floats[name] = ctr.Load()
		}
	}
	children := make([]*Counters, 0, len(c.children))
	for _, ch := range c.children {
		children = append(children, ch)
	}
	c.mu.Unlock()

	sort.Slice(children, func(i, j int) bool { return children[i].name < children[j].name })
	for _, ch := range children {
		r.Children = append(r.Children, ch.snapshot())
	}
	return r
}
