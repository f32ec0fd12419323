// Package cluster is the distribution layer under genesysd's cluster
// mode: a consistent-hash ring that shards run-cache keys across a
// worker fleet, a membership registry with heartbeat health-checking,
// and the HTTP/JSON worker RPC the coordinator drives island-model
// evolution sessions over. The paper's scale story is population-level
// parallelism inside one chip (the EvE PE array evolves many genomes
// concurrently); this package takes the same axis horizontal — many
// worker processes, each evolving its shard of the key space or its
// subset of islands.
//
// The ring is what keeps the PR 7 disk store coherent under a fleet:
// each unique (workload, pop, gens, seed) tuple hashes to exactly one
// owner, so one worker evolves it, one worker writes its checkpoint,
// and one worker commits its artifact — the coordinator proxies
// everything else.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/rng"
)

// DefaultVnodes is the virtual-node count per member. 64 points per
// worker keeps the max/min load ratio within a few percent for small
// fleets while the ring stays tiny (a 16-worker fleet is 1024 points).
const DefaultVnodes = 64

// point is one virtual node: a position on the ring owned by a member.
type point struct {
	hash uint64
	id   string
}

// Ring is a consistent-hash ring. Keys and members hash onto the same
// 64-bit circle; a key is owned by the first member point clockwise
// from the key's hash. Adding or removing a member only moves the keys
// adjacent to its points — the property that makes membership change
// cheap: a worker death re-shards only that worker's keys instead of
// reshuffling the whole cache.
//
// Ring is not safe for concurrent use; Membership serializes access.
type Ring struct {
	vnodes int
	points []point // sorted by hash
}

// NewRing builds an empty ring with the given virtual-node count per
// member (<= 0 selects DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV alone clusters badly on short, similar strings (vnode labels
	// differ only in a numeric suffix), which skews the load split; a
	// splitmix64 finalizer spreads the points uniformly over the circle.
	return rng.Mix64(h.Sum64())
}

// Add inserts a member's virtual nodes. Adding an existing member is a
// no-op (the points would be duplicates).
func (r *Ring) Add(id string) {
	if r.Has(id) {
		return
	}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hash: hash64(id + "#" + strconv.Itoa(v)), id: id})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare with 64-bit FNV) break on the id so
		// every process builds the identical ring from the same members.
		return r.points[i].id < r.points[j].id
	})
}

// Remove deletes a member's virtual nodes.
func (r *Ring) Remove(id string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports whether the member has points on the ring.
func (r *Ring) Has(id string) bool {
	for _, p := range r.points {
		if p.id == id {
			return true
		}
	}
	return false
}

// Owner returns the member owning the key: the first virtual node
// clockwise from the key's hash. False when the ring is empty.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point
	}
	return r.points[i].id, true
}

// Members returns the distinct member ids on the ring, sorted.
func (r *Ring) Members() []string {
	seen := map[string]bool{}
	var ids []string
	for _, p := range r.points {
		if !seen[p.id] {
			seen[p.id] = true
			ids = append(ids, p.id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Points returns the virtual-node count currently on the ring.
func (r *Ring) Points() int { return len(r.points) }
