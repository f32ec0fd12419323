package store

import (
	"errors"
	"io/fs"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// FS is the store's filesystem seam: the nine operations the store
// performs, injectable so tests drive every degradation path with a
// deterministic fault layer instead of hoping the disk misbehaves on
// cue.
type FS interface {
	ReadFile(name string) ([]byte, error)
	// Open opens a file for streaming reads: payload verification
	// never holds a whole payload it does not return.
	Open(name string) (fs.File, error)
	WriteFile(name string, data []byte, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	MkdirAll(path string, perm fs.FileMode) error
	RemoveAll(path string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	Chtimes(name string, atime, mtime time.Time) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OSFS) Open(name string) (fs.File, error)    { return os.Open(name) }
func (OSFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OSFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OSFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (OSFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (OSFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (OSFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

// ErrDiskFull is the write failure a FaultFS injects.
var ErrDiskFull = errors.New("store: injected disk full")

// FaultFS wraps an FS with seeded, deterministic fault injection in
// the spirit of internal/hw/fault: each fault is a pure function of
// (Seed, operation index), so a failing sequence replays identically
// under the same configuration, and the zero configuration is a
// transparent pass-through.
//
// Operation indices count only the fault-eligible calls: WriteFile
// draws for TornWriteEvery and WriteFailEvery; ReadFile and Open share
// one count for BitRotEvery. Periods are in units of those calls:
// TornWriteEvery=3 tears every third write. Calls made from several
// goroutines at once draw their indices in the order they arrive. A
// store's checkpoint handle shares its FS, so checkpoint saves and
// loads draw indices as commits and reads do.
type FaultFS struct {
	Inner FS
	// Seed selects which byte/bit each injected fault hits.
	Seed uint64
	// TornWriteEvery > 0 truncates every Nth WriteFile to a strict
	// prefix while still reporting success — the classic crash-mid-write
	// artifact.
	TornWriteEvery int
	// BitRotEvery > 0 flips one bit in every Nth successful read — the
	// bytes of a ReadFile or the stream of an Open — silent media decay.
	// The Nth read flips the same bit either way.
	BitRotEvery int
	// WriteFailEvery > 0 fails every Nth WriteFile with ErrDiskFull
	// (after the torn-write draw, so the two compose deterministically).
	WriteFailEvery int

	writes atomic.Uint64
	reads  atomic.Uint64
}

// mix is splitmix64: one well-scattered draw per (seed, index).
func mix(seed, index uint64) uint64 { return rng.Mix64(seed + index*0x9E3779B97F4A7C15) }

func (f *FaultFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	n := f.writes.Add(1)
	if f.WriteFailEvery > 0 && n%uint64(f.WriteFailEvery) == 0 {
		return ErrDiskFull
	}
	if f.TornWriteEvery > 0 && n%uint64(f.TornWriteEvery) == 0 && len(data) > 0 {
		cut := mix(f.Seed, n) % uint64(len(data)) // strict prefix: [0, len)
		return f.Inner.WriteFile(name, data[:cut], perm)
	}
	return f.Inner.WriteFile(name, data, perm)
}

// rot draws the bit the nth read of a size-byte file flips: the byte
// offset and the mask. It reports false when the read stays clean.
func (f *FaultFS) rot(n uint64, size int64) (int64, byte, bool) {
	if f.BitRotEvery <= 0 || n%uint64(f.BitRotEvery) != 0 || size <= 0 {
		return 0, 0, false
	}
	draw := mix(f.Seed, n)
	return int64(draw % uint64(size)), 1 << (draw >> 32 % 8), true
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	data, err := f.Inner.ReadFile(name)
	if err != nil {
		return data, err
	}
	if at, mask, ok := f.rot(f.reads.Add(1), int64(len(data))); ok {
		rotten := make([]byte, len(data))
		copy(rotten, data)
		rotten[at] ^= mask
		return rotten, nil
	}
	return data, nil
}

func (f *FaultFS) Open(name string) (fs.File, error) {
	file, err := f.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	n := f.reads.Add(1)
	var size int64
	if info, err := file.Stat(); err == nil {
		size = info.Size()
	}
	if at, mask, ok := f.rot(n, size); ok {
		return &rottenFile{File: file, at: at, mask: mask}, nil
	}
	return file, nil
}

// rottenFile is a stream with one bit flipped: the byte at offset at
// (counted from the current read position) is XORed with mask as it
// passes.
type rottenFile struct {
	fs.File
	at   int64
	mask byte
}

func (r *rottenFile) Read(p []byte) (int, error) {
	n, err := r.File.Read(p)
	if r.at >= 0 && r.at < int64(n) {
		p[r.at] ^= r.mask
	}
	r.at -= int64(n)
	return n, err
}

func (f *FaultFS) Rename(oldpath, newpath string) error { return f.Inner.Rename(oldpath, newpath) }
func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.Inner.MkdirAll(path, perm)
}
func (f *FaultFS) RemoveAll(path string) error                { return f.Inner.RemoveAll(path) }
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.Inner.ReadDir(name) }
func (f *FaultFS) Stat(name string) (fs.FileInfo, error)      { return f.Inner.Stat(name) }
func (f *FaultFS) Chtimes(name string, atime, mtime time.Time) error {
	return f.Inner.Chtimes(name, atime, mtime)
}
