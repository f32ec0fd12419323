package gene

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// JSON serialization of genomes, for interchange: island champions and
// migrants, Pareto fronts and the controllers cmd/genesys saves. The
// format is explicit (no packed words) so a genome stays readable;
// population checkpoints and stored runs hold genomes as binary
// records instead (record.go), and the hardware word format
// (Pack/FromWords) remains the storage model for the chip.
//
// A genome serializes as
//
//	{"id":7,"fitness":1.5,
//	 "nodes":[{"id":0,"type":"input","bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"},...],
//	 "conns":[{"src":0,"dst":2,"weight":0.25,"enabled":true},...]}
//
// with null for an empty gene list. The codec is written by hand: one
// pass over the gene slices is several times faster than encoding/json
// reflection. The bytes are exactly those encoding/json writes for the
// same genome, so stored island and Pareto runs stay byte-identical.

// MarshalJSON implements json.Marshaler.
func (g *Genome) MarshalJSON() ([]byte, error) { return g.AppendJSON(nil) }

// AppendJSON appends the genome's compact JSON encoding to b and
// returns the extended buffer. It fails on a NaN or infinite
// attribute, which JSON cannot represent, and then returns b
// unextended.
func (g *Genome) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	var err error
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, g.ID, 10)
	b = append(b, `,"fitness":`...)
	if b, err = appendJSONFloat(b, g.Fitness); err != nil {
		return b[:start], err
	}
	b = append(b, `,"nodes":`...)
	for i, n := range g.Nodes {
		b = appendSep(b, i)
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(n.NodeID), 10)
		b = append(b, `,"type":"`...)
		if int(n.Type) < len(nodeTypeNames) {
			b = append(b, nodeTypeNames[n.Type]...)
		}
		b = append(b, `","bias":`...)
		if b, err = appendJSONFloat(b, n.Bias); err != nil {
			return b[:start], err
		}
		b = append(b, `,"response":`...)
		if b, err = appendJSONFloat(b, n.Response); err != nil {
			return b[:start], err
		}
		b = append(b, `,"activation":"`...)
		b = append(b, n.Activation.String()...)
		b = append(b, `","aggregation":"`...)
		b = append(b, n.Aggregation.String()...)
		b = append(b, `"}`...)
	}
	b = appendEnd(b, len(g.Nodes))
	b = append(b, `,"conns":`...)
	for i, c := range g.Conns {
		b = appendSep(b, i)
		b = append(b, `{"src":`...)
		b = strconv.AppendInt(b, int64(c.Src), 10)
		b = append(b, `,"dst":`...)
		b = strconv.AppendInt(b, int64(c.Dst), 10)
		b = append(b, `,"weight":`...)
		if b, err = appendJSONFloat(b, c.Weight); err != nil {
			return b[:start], err
		}
		b = append(b, `,"enabled":`...)
		b = strconv.AppendBool(b, c.Enabled)
		b = append(b, '}')
	}
	b = appendEnd(b, len(g.Conns))
	return append(b, '}'), nil
}

// appendSep opens a list before its first element and separates the
// later ones.
func appendSep(b []byte, i int) []byte {
	if i == 0 {
		return append(b, '[')
	}
	return append(b, ',')
}

// appendEnd closes a list of n elements; an empty list is null, as
// encoding/json writes a nil slice.
func appendEnd(b []byte, n int) []byte {
	if n == 0 {
		return append(b, "null"...)
	}
	return append(b, ']')
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest representation that parses back to f, in exponent form
// below 1e-6 and from 1e21 in magnitude, with the exponent unpadded
// (1e-7, not 1e-07). NaN and ±Inf have no JSON form and fail.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("gene: %v has no JSON representation", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// UnmarshalJSON implements json.Unmarshaler and validates the result.
// It reads the object in one pass, appending genes that arrive in
// key order and inserting the rest with PutNode/PutConn. As with
// encoding/json, keys may come in any order and an absent number or
// flag reads as zero, but the decoder is stricter in four ways: it
// rejects an unknown key (a known key in another letter case
// included), a repeated key, a string with an escape sequence, and
// null anywhere but in place of an empty gene list.
func (g *Genome) UnmarshalJSON(data []byte) error {
	d := decoder{data: data}
	var out Genome
	if err := d.genome(&out); err != nil {
		return err
	}
	if err := d.end(); err != nil {
		return err
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*g = out
	return nil
}

// The keys of the three object kinds; a key's index is its bit in the
// seen mask of key and its slot in the values fields reads.
var (
	genomeKeys = [...]string{"id", "fitness", "nodes", "conns"}
	nodeKeys   = [...]string{"id", "type", "bias", "response", "activation", "aggregation"}
	connKeys   = [...]string{"src", "dst", "weight", "enabled"}
)

// decoder reads genomes and the values around them from data,
// tracking its offset.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("gene: offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end checks that nothing but whitespace is left.
func (d *decoder) end() error {
	if d.peek(); d.off != len(d.data) {
		return d.errorf("data after the document")
	}
	return nil
}

// consume skips whitespace and reads c, reporting whether it was next.
func (d *decoder) consume(c byte) bool {
	if d.peek() != c {
		return false
	}
	d.off++
	return true
}

// list reads the comma-separated members of an object or array
// delimited by open and close, calling member for each.
func (d *decoder) list(open, close byte, member func() error) error {
	if !d.consume(open) {
		return d.errorf("want %q", open)
	}
	if d.consume(close) {
		return nil
	}
	for {
		if err := member(); err != nil {
			return err
		}
		if d.consume(close) {
			return nil
		}
		if !d.consume(',') {
			return d.errorf("want ',' or %q", close)
		}
	}
}

// key reads an object key and its colon and returns the key's index
// in keys, rejecting an unknown key or one already in seen.
func (d *decoder) key(keys []string, seen *uint16) (int, error) {
	tok, err := d.scalar()
	if err != nil {
		return 0, err
	}
	if len(tok) >= 2 && tok[0] == '"' {
		for i, k := range keys {
			if string(tok[1:len(tok)-1]) != k {
				continue
			}
			if *seen&(1<<i) != 0 {
				return 0, d.errorf("repeated key %s", tok)
			}
			*seen |= 1 << i
			if !d.consume(':') {
				return 0, d.errorf("want ':'")
			}
			return i, nil
		}
	}
	return 0, d.errorf("unknown key %s", tok)
}

// scalar reads one string, number or literal and returns its bytes,
// quotes included, so the typed parsers below can tell a string from
// a number. A string ends at the next quote: every string the decoder
// accepts is a key or a name, none of which holds a backslash, so a
// string with an escape sequence never matches and is rejected. Numbers
// follow the JSON grammar.
func (d *decoder) scalar() ([]byte, error) {
	c := d.peek()
	start := d.off
	switch {
	case c == '"':
		n := bytes.IndexByte(d.data[start+1:], '"')
		if n < 0 {
			return nil, d.errorf("unterminated string")
		}
		d.off = start + n + 2
	case c == '-' || '0' <= c && c <= '9':
		if !d.number() {
			return nil, d.errorf("malformed number")
		}
	default:
		rest := d.data[start:]
		for _, lit := range [...]string{"true", "false", "null"} {
			if len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
				d.off += len(lit)
				return rest[:len(lit)], nil
			}
		}
		return nil, d.errorf("want a value")
	}
	return d.data[start:d.off], nil
}

// number advances over a number in the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether
// one was there.
func (d *decoder) number() bool {
	s, i := d.data, d.off
	digits := func() int {
		j := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i - j
	}
	if s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if digits() == 0 {
		return false
	}
	if i < len(s) && s[i] == '.' {
		i++
		if digits() == 0 {
			return false
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if digits() == 0 {
			return false
		}
	}
	d.off = i
	return true
}

// genome reads the genome object.
func (d *decoder) genome(g *Genome) error {
	var seen uint16
	return d.list('{', '}', func() error {
		k, err := d.key(genomeKeys[:], &seen)
		if err != nil {
			return err
		}
		switch genomeKeys[k] {
		case "nodes":
			return d.genes(func() error { return d.node(g) })
		case "conns":
			return d.genes(func() error { return d.conn(g) })
		}
		tok, err := d.scalar()
		if err != nil {
			return err
		}
		var p typed
		if genomeKeys[k] == "id" {
			g.ID = p.int(tok, 64)
		} else {
			g.Fitness = p.float(tok)
		}
		return p.err
	})
}

// genes reads a gene list: an array of gene objects, or null.
func (d *decoder) genes(gene func() error) error {
	if d.null() {
		return nil
	}
	return d.list('[', ']', gene)
}

// null reads a null if one is next and reports whether it did.
func (d *decoder) null() bool {
	if d.peek() == 'n' && bytes.HasPrefix(d.data[d.off:], []byte("null")) {
		d.off += len("null")
		return true
	}
	return false
}

// fields reads a flat object of scalars into vals, indexed like keys;
// an absent key leaves its value nil.
func (d *decoder) fields(keys []string, vals [][]byte) error {
	var seen uint16
	return d.list('{', '}', func() error {
		k, err := d.key(keys, &seen)
		if err != nil {
			return err
		}
		vals[k], err = d.scalar()
		return err
	})
}

// node reads one node gene object into g.
func (d *decoder) node(g *Genome) error {
	var v [len(nodeKeys)][]byte
	if err := d.fields(nodeKeys[:], v[:]); err != nil {
		return err
	}
	var p typed
	n := Gene{
		Kind:        KindNode,
		NodeID:      int32(p.int(v[0], 32)),
		Type:        NodeType(p.name(v[1], nodeTypeNames[:], "node type")),
		Bias:        p.float(v[2]),
		Response:    p.float(v[3]),
		Activation:  Activation(p.name(v[4], activationNames[:], "activation")),
		Aggregation: Aggregation(p.name(v[5], aggregationNames[:], "aggregation")),
	}
	if p.err != nil {
		return p.err
	}
	if k := len(g.Nodes); k == 0 || g.Nodes[k-1].NodeID < n.NodeID {
		g.Nodes = append(g.Nodes, n)
	} else {
		g.PutNode(n)
	}
	return nil
}

// conn reads one connection gene object into g.
func (d *decoder) conn(g *Genome) error {
	var v [len(connKeys)][]byte
	if err := d.fields(connKeys[:], v[:]); err != nil {
		return err
	}
	var p typed
	c := Gene{
		Kind:    KindConn,
		Src:     int32(p.int(v[0], 32)),
		Dst:     int32(p.int(v[1], 32)),
		Weight:  p.float(v[2]),
		Enabled: p.bool(v[3]),
	}
	if p.err != nil {
		return p.err
	}
	if k := len(g.Conns); k == 0 || g.Conns[k-1].Src < c.Src ||
		(g.Conns[k-1].Src == c.Src && g.Conns[k-1].Dst < c.Dst) {
		g.Conns = append(g.Conns, c)
	} else {
		g.PutConn(c)
	}
	return nil
}

// typed converts scalar tokens into field values and keeps the first
// failure. An absent (nil) number or flag is zero; an absent name
// fails, since no name is empty.
type typed struct{ err error }

func (p *typed) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("gene: "+format, args...)
	}
}

// int reads an integer of the given bit size.
func (p *typed) int(tok []byte, bits int) int64 {
	if tok == nil {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		p.fail("%s is not an int%d", tok, bits)
	}
	return v
}

// float reads a number. A token scalar read as a number follows the
// JSON grammar; any other token fails ParseFloat.
func (p *typed) float(tok []byte) float64 {
	if tok == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		p.fail("%s is not a float64", tok)
	}
	return v
}

// bool reads true or false.
func (p *typed) bool(tok []byte) bool {
	if string(tok) != "true" && string(tok) != "false" && tok != nil {
		p.fail("%s is not a boolean", tok)
	}
	return string(tok) == "true"
}

// name reads a quoted string and returns its index in names.
func (p *typed) name(tok []byte, names []string, what string) int {
	if len(tok) >= 2 && tok[0] == '"' {
		for i, n := range names {
			if string(tok[1:len(tok)-1]) == n {
				return i
			}
		}
	}
	p.fail("unknown %s %s", what, tok)
	return 0
}

// Save writes the genome as indented JSON.
func (g *Genome) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// Load reads a genome from JSON.
func Load(r io.Reader) (*Genome, error) {
	g := &Genome{}
	if err := json.NewDecoder(r).Decode(g); err != nil {
		return nil, err
	}
	return g, nil
}
