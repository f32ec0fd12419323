package store

import (
	"io/fs"
	"path/filepath"
	"sort"
	"time"
)

// GCResult accounts one GC pass.
type GCResult struct {
	EvictedAge       int   `json:"evicted_age"`
	EvictedSize      int   `json:"evicted_size"`
	BytesReclaimed   int64 `json:"bytes_reclaimed"`
	CheckpointsSwept int   `json:"checkpoints_swept"`
	TmpSwept         int   `json:"tmp_swept"`
}

// gcCandidate is one committed artifact with its GC-relevant facts.
type gcCandidate struct {
	dir   string
	bytes int64
	mtime time.Time // manifest mtime: commit time, refreshed on every hit
}

// GC enforces the store's size and age budgets and sweeps the
// checkpoint directory and stale commit staging. Eviction order is
// least-recently-used: the manifest's mtime is stamped on every hit,
// so an artifact's recency is exactly its last replay, or its commit
// if it never hit; Recover's boot verification leaves it alone.
// Results are also accumulated into the store's hwsim counters, so the
// /metrics tree carries lifetime GC accounting.
func (s *Store) GC() GCResult {
	s.mu.Lock()
	defer s.mu.Unlock()

	var res GCResult
	now := s.now()

	var cands []gcCandidate
	entries, err := s.fs.ReadDir(s.runsDir())
	if err == nil {
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := filepath.Join(s.runsDir(), e.Name())
			c := gcCandidate{dir: dir, bytes: s.dirBytes(dir)}
			if info, err := s.fs.Stat(filepath.Join(dir, manifestFile)); err == nil {
				c.mtime = info.ModTime()
			}
			// No manifest (zero mtime) sorts oldest: a torn commit that
			// somehow landed in runs/ is the first thing reclaimed.
			cands = append(cands, c)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mtime.Before(cands[j].mtime) })

	var total int64
	for _, c := range cands {
		total += c.bytes
	}
	evicted := make(map[string]bool)
	if s.cfg.MaxAge > 0 {
		for _, c := range cands {
			if now.Sub(c.mtime) > s.cfg.MaxAge {
				if s.fs.RemoveAll(c.dir) == nil {
					evicted[c.dir] = true
					total -= c.bytes
					res.EvictedAge++
					res.BytesReclaimed += c.bytes
				}
			}
		}
	}
	if s.cfg.MaxBytes > 0 {
		for _, c := range cands {
			if total <= s.cfg.MaxBytes {
				break
			}
			if evicted[c.dir] {
				continue
			}
			if s.fs.RemoveAll(c.dir) == nil {
				evicted[c.dir] = true
				total -= c.bytes
				res.EvictedSize++
				res.BytesReclaimed += c.bytes
			}
		}
	}

	// Checkpoints that can never be useful again go: those whose run
	// already has a committed artifact (the run finished; resume is
	// moot), those older than CheckpointMaxAge (a cancelled job nobody
	// resubmitted; a ".ckpt" whose name parses to no key ages out like
	// any orphan), and save staging older than staleAfter (an
	// interrupted save's leftover; a younger one may be a save in
	// flight, whose rename must not fail).
	res.CheckpointsSwept = s.ckpts.sweep(func(e fs.DirEntry, staging bool, key Key, ok bool) bool {
		if staging {
			return olderThan(e, now, staleAfter)
		}
		return ok && s.Has(key) || s.cfg.CheckpointMaxAge > 0 && olderThan(e, now, s.cfg.CheckpointMaxAge)
	})
	res.TmpSwept = s.sweepTmp(now)

	s.gcCtr.AddInt("evicted_age", int64(res.EvictedAge))
	s.gcCtr.AddInt("evicted_size", int64(res.EvictedSize))
	s.gcCtr.AddInt("bytes_reclaimed", res.BytesReclaimed)
	s.gcCtr.AddInt("checkpoints_swept", int64(res.CheckpointsSwept))
	s.gcCtr.AddInt("tmp_swept", int64(res.TmpSwept))
	s.gcCtr.AddInt("passes", 1)
	return res
}

// sweepTmp removes abandoned commit staging from tmp/ and returns how
// many entries it removed. A crash between "stage" and "rename" leaves
// the partial artifact here, never in runs/. Only entries older than
// staleAfter go: a younger one may be another process's commit in
// flight.
func (s *Store) sweepTmp(now time.Time) int {
	// A tmp/ that cannot be read has nothing this pass can sweep.
	entries, _ := s.fs.ReadDir(s.tmpDir())
	swept := 0
	for _, e := range entries {
		if olderThan(e, now, staleAfter) && s.fs.RemoveAll(filepath.Join(s.tmpDir(), e.Name())) == nil {
			swept++
		}
	}
	return swept
}

// olderThan reports whether e was last modified more than age before
// now.
func olderThan(e fs.DirEntry, now time.Time, age time.Duration) bool {
	info, err := e.Info()
	return err == nil && now.Sub(info.ModTime()) > age
}
