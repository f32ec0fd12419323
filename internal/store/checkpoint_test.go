package store

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// nameFS records the names WriteFile is called with.
type nameFS struct {
	FS
	written []string
}

func (n *nameFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	n.written = append(n.written, filepath.Base(name))
	return n.FS.WriteFile(name, data, perm)
}

// TestCheckpointsRoundTrip: a saved document loads back byte for byte
// from "<key>.ckpt", the only file the save leaves. Each save stages
// through a name of its own that GC's staleness rule covers (it holds
// ".ckpt.tmp"), and two handles on one directory never pick the same
// staging name.
func TestCheckpointsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := testKey(20)
	doc := []byte("GNSYPOP\x01 a population document")
	fsys := &nameFS{FS: OSFS{}}
	a, b := NewCheckpoints(dir, fsys), NewCheckpoints(dir, fsys)
	for _, c := range []*Checkpoints{a, b, a} {
		if err := c.Save(key, doc); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := b.Load(key)
	if !ok || !bytes.Equal(got, doc) {
		t.Fatalf("Load = %q, %v; want %q", got, ok, doc)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 || ents[0].Name() != key.String()+".ckpt" {
		t.Fatalf("directory holds %d entries, want only %s.ckpt", len(ents), key)
	}
	seen := map[string]bool{}
	for _, name := range fsys.written {
		if !strings.HasPrefix(name, key.String()+".ckpt.tmp") || seen[name] {
			t.Errorf("staging name %q: not %s.ckpt.tmp* or used twice", name, key)
		}
		seen[name] = true
	}
	a.Remove(key)
	if _, ok := a.Load(key); ok {
		t.Fatal("removed checkpoint loads")
	}
}

// TestCheckpointsRefuseDamage: a checkpoint file that is short or fails
// its digest, wherever the damage is, loads as no checkpoint and is
// removed. An earlier build's file, the bare document, fails the digest.
func TestCheckpointsRefuseDamage(t *testing.T) {
	doc := []byte("GNSYPOP\x01 a population document")
	sum := sha256.Sum256(doc)
	good := append(append([]byte{}, doc...), sum[:]...)
	flip := func(at int) []byte {
		b := append([]byte{}, good...)
		b[at] ^= 0x10
		return b
	}
	for name, data := range map[string][]byte{
		"empty":            {},
		"shorter":          good[:sha256.Size-1],
		"torn":             good[:len(good)-1],
		"document bit":     flip(3),
		"digest bit":       flip(len(doc) + 5),
		"earlier build":    doc,
		"trailing byte":    append(append([]byte{}, good...), 0),
		"digest only":      sum[:],
		"another's digest": append(append([]byte{}, doc[1:]...), sum[:]...),
	} {
		dir := t.TempDir()
		key := testKey(21)
		path := filepath.Join(dir, key.String()+".ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := NewCheckpoints(dir, OSFS{}).Load(key); ok {
			t.Errorf("%s: loaded %q", name, got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: file left behind (stat: %v)", name, err)
		}
	}
}
