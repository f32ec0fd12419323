package network

import (
	"sync"

	"repro/internal/gene"
)

// Cache memoizes compiled phenotype programs across generations, keyed
// by the genome's version stamp (gene.Genome.Version). It is the
// software mirror of the paper's genome-level reuse (GLR, §III):
// elites, champions, and unmutated clones carry their parent's stamp,
// so their phenotypes are served from the cache instead of being
// recompiled every generation. Programs are immutable, so a cached
// entry can back concurrent evaluations, each on its own lightweight
// instance (Program.Instantiate: two float slices).
//
// The zero value is ready to use. GetProgram is safe for concurrent
// use; Sweep must not race with it (call it between generations).
type Cache struct {
	mu      sync.Mutex
	entries map[int64]*cacheEntry
	hits    int64
	misses  int64
}

type cacheEntry struct {
	prog *program
	// used marks the entry as touched since the last Sweep; Sweep
	// evicts untouched entries (genomes mutated away or culled).
	used bool
}

// GetProgram returns the genome's compiled program as a shared
// immutable handle, compiling with b on a miss; callers that need
// scalar evaluation state Instantiate it. Concurrent misses on the same
// stamp may compile twice; both results are identical, so the
// duplicate work is harmless and the window is one generation at most.
func (c *Cache) GetProgram(b *Builder, g *gene.Genome) (Program, error) {
	v := g.Version()
	c.mu.Lock()
	if e, ok := c.entries[v]; ok {
		e.used = true
		c.hits++
		c.mu.Unlock()
		return Program{p: e.prog}, nil
	}
	c.misses++
	c.mu.Unlock()

	p, err := b.compile(g)
	if err != nil {
		return Program{}, err
	}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[int64]*cacheEntry)
	}
	c.entries[v] = &cacheEntry{prog: p, used: true}
	c.mu.Unlock()
	return Program{p: p}, nil
}

// Sweep evicts every entry not served since the previous Sweep and
// resets the usage marks. Called once per generation, it bounds the
// cache to roughly two generations of live phenotypes: an entry used in
// generation N survives exactly long enough for a clone (elite,
// champion) to hit it in generation N+1.
func (c *Cache) Sweep() {
	c.mu.Lock()
	for v, e := range c.entries {
		if !e.used {
			delete(c.entries, v)
		}
		e.used = false
	}
	c.mu.Unlock()
}

// Reset drops every cached program, releasing the compiled phenotypes
// for collection. The hit/miss counters survive (they describe the
// run, not the live set). Like Sweep it must not race with
// GetProgram; call it only once evaluation has stopped.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
}

// Len returns the number of cached programs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
