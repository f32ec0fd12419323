package hwsim

import (
	"encoding/json"
	"sort"
	"strings"
)

// Report is an immutable snapshot of one registry node: the structured
// tree the SoC stack serializes, traverses and aggregates instead of
// bespoke per-block report structs. Maps serialize with sorted keys and
// children are name-sorted, so JSON output is deterministic.
type Report struct {
	Name     string             `json:"name"`
	Ints     map[string]int64   `json:"ints,omitempty"`
	Floats   map[string]float64 `json:"floats,omitempty"`
	Children []Report           `json:"children,omitempty"`
}

// Child returns the named child subtree.
func (r Report) Child(name string) (Report, bool) {
	for _, ch := range r.Children {
		if ch.Name == name {
			return ch, true
		}
	}
	return Report{}, false
}

// node walks the child path (all but the last path segment).
func (r Report) node(segs []string) (Report, bool) {
	cur := r
	for _, s := range segs {
		ch, ok := cur.Child(s)
		if !ok {
			return Report{}, false
		}
		cur = ch
	}
	return cur, true
}

// split separates a slash path into its node walk and counter name.
func split(path string) (segs []string, leaf string) {
	parts := strings.Split(path, "/")
	return parts[:len(parts)-1], parts[len(parts)-1]
}

// Int reads the integer counter at a slash path relative to this node,
// e.g. "eve/pe/gene_ops". Missing paths read as 0.
func (r Report) Int(path string) int64 {
	segs, leaf := split(path)
	n, ok := r.node(segs)
	if !ok {
		return 0
	}
	return n.Ints[leaf]
}

// Float reads the float counter at a slash path relative to this node.
// Missing paths read as 0.
func (r Report) Float(path string) float64 {
	segs, leaf := split(path)
	n, ok := r.node(segs)
	if !ok {
		return 0
	}
	return n.Floats[leaf]
}

// FloatNames lists this node's float counter names sorted — for
// renderers that walk a record's values without knowing them ahead of
// time (e.g. a Pareto front record's objective columns).
func (r Report) FloatNames() []string {
	names := make([]string, 0, len(r.Floats))
	for name := range r.Floats {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Value reads either kind of counter at a slash path, reporting
// whether it exists. Float counters win on a name collision.
func (r Report) Value(path string) (float64, bool) {
	segs, leaf := split(path)
	n, ok := r.node(segs)
	if !ok {
		return 0, false
	}
	if v, ok := n.Floats[leaf]; ok {
		return v, true
	}
	if v, ok := n.Ints[leaf]; ok {
		return float64(v), true
	}
	return 0, false
}

// JSON renders the tree as indented JSON.
func (r Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
