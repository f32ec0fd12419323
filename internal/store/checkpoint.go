package store

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// Checkpoints is the one owner of a checkpoint directory's files: it
// names, saves, loads and removes them, and sweeps them for GC and
// Recover, all through the FS seam. A run key has one checkpoint file,
// "<dir>/<key>.ckpt", in every process sharing the directory, so a
// job re-dispatched to another worker resumes from the file its first
// owner left.
//
// The file is the population document followed by its SHA-256 (the
// digest manifests use). A save stages through a file no other handle
// picks ("<key>.ckpt.tmp.<token>-<seq>") and renames it into place, so
// an interrupted save leaves the previous checkpoint intact, and
// several processes may save one key at once: each rename installs
// one complete checkpoint. A file that is short or fails its digest
// (torn, rotted, or written by an earlier build) loads as no
// checkpoint and is removed.
type Checkpoints struct {
	fs  FS
	dir string
	// token, drawn at creation, and seq make this handle's staging names
	// unique among every handle sharing the directory.
	token string
	seq   atomic.Int64
}

// NewCheckpoints returns a handle on the existing checkpoint directory
// dir, whose files it reaches through fsys.
func NewCheckpoints(dir string, fsys FS) *Checkpoints {
	return &Checkpoints{fs: fsys, dir: dir, token: fmt.Sprintf("%08x", rand.Uint32())}
}

func (c *Checkpoints) path(key Key) string { return filepath.Join(c.dir, key.String()+".ckpt") }

// Save stores doc as key's checkpoint, replacing any earlier one.
func (c *Checkpoints) Save(key Key, doc []byte) error {
	sum := sha256.Sum256(doc)
	staging := fmt.Sprintf("%s.tmp.%s-%d", c.path(key), c.token, c.seq.Add(1))
	err := c.fs.WriteFile(staging, append(doc, sum[:]...), 0o644)
	if err == nil {
		err = c.fs.Rename(staging, c.path(key))
	}
	if err != nil {
		c.fs.RemoveAll(staging)
	}
	return err
}

// Load returns key's checkpoint document, or false when there is none.
// A file that is short or fails its digest is removed: kept, it would
// be read again by every retry of its key until GC aged it out.
func (c *Checkpoints) Load(key Key) ([]byte, bool) {
	data, err := c.fs.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	n := len(data) - sha256.Size
	if n < 0 || sha256.Sum256(data[:n]) != [sha256.Size]byte(data[n:]) {
		c.Remove(key)
		return nil, false
	}
	return data[:n], true
}

// Remove deletes key's checkpoint, if any.
func (c *Checkpoints) Remove(key Key) { c.fs.RemoveAll(c.path(key)) }

// sweep lists the directory's checkpoint files (none on a nil handle
// or an unreadable directory), removes each one drop selects, and
// returns how many it removed. drop sees a save's staging file with
// staging set, and a "<key>.ckpt" file with its key when the name
// parses (ok).
func (c *Checkpoints) sweep(drop func(e fs.DirEntry, staging bool, key Key, ok bool) bool) (swept int) {
	if c == nil {
		return 0
	}
	entries, _ := c.fs.ReadDir(c.dir)
	for _, e := range entries {
		name := e.Name()
		staging := strings.Contains(name, ".ckpt.tmp")
		if e.IsDir() || !staging && !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		key, ok := ParseKeyFilename(name)
		if drop(e, staging, key, ok && !staging) && c.fs.RemoveAll(filepath.Join(c.dir, name)) == nil {
			swept++
		}
	}
	return swept
}
