package store

import (
	"errors"
	"io/fs"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// RecoveryReport accounts one startup-recovery pass.
type RecoveryReport struct {
	// Interrupted holds the keys of orphaned checkpoints: runs that were
	// in flight when the previous process died and should be re-enqueued
	// so they resume from their checkpoints.
	Interrupted []Key
	// Verified counts committed artifacts that passed full verification.
	Verified int
	// Quarantined counts artifacts that failed it and were moved aside.
	Quarantined int
	// TmpSwept counts abandoned staging directories removed from tmp/:
	// those older than staleAfter.
	TmpSwept int
	// CheckpointsSwept counts checkpoint files reclaimed because their
	// run already has a committed artifact (completed before the crash).
	CheckpointsSwept int
}

// scratchSize is the buffer each recovery worker streams payloads
// through.
const scratchSize = 256 << 10

// Recover is the startup pass after an unclean shutdown (or any
// start — it is a no-op on a healthy store). It sweeps abandoned
// commit staging from tmp/ as GC does (only entries older than
// staleAfter: a younger one may be another process's commit in
// flight; GC sweeps the rest once they age), fully
// verifies every committed artifact (quarantining corruption now, at
// boot, rather than at first read under traffic), reclaims checkpoints
// of completed runs, and returns the keys of orphaned checkpoints so
// the scheduler can re-enqueue the interrupted runs.
//
// Verification holds every payload byte to its manifest's size and
// SHA-256, the check Get makes, on GOMAXPROCS workers that stream each
// payload through one reused buffer. It counts no hit and stamps no
// recency: a boot is not a use, so GC ages an artifact from its last
// hit or commit whatever the restarts in between. The checkpoint pass
// runs after every verification has finished, so the checkpoint of a
// run whose artifact was just quarantined is kept and re-enqueued.
func (s *Store) Recover() RecoveryReport {
	var rep RecoveryReport

	rep.TmpSwept = s.sweepTmp(s.now())
	rep.Verified, rep.Quarantined = s.verifyAll()

	// Checkpoints: completed runs' checkpoints are reclaimed; the rest
	// are interrupted runs to re-enqueue. A key has one checkpoint name,
	// so each interrupted key is listed once.
	if s.cfg.CheckpointDir != "" {
		entries, err := s.fs.ReadDir(s.cfg.CheckpointDir)
		if err == nil {
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".ckpt") {
					continue
				}
				key, ok := ParseKeyFilename(name)
				if !ok {
					continue
				}
				if s.Has(key) {
					if s.fs.RemoveAll(filepath.Join(s.cfg.CheckpointDir, name)) == nil {
						rep.CheckpointsSwept++
					}
					continue
				}
				rep.Interrupted = append(rep.Interrupted, key)
			}
		}
	}
	sort.Slice(rep.Interrupted, func(i, j int) bool {
		return rep.Interrupted[i].String() < rep.Interrupted[j].String()
	})
	return rep
}

// verifyAll verifies every artifact under runs/ and returns how many
// passed and how many failed. The workers pull keys from a shared
// index, one artifact at a time, and each keeps one scratch buffer.
func (s *Store) verifyAll() (verified, quarantined int) {
	entries, err := s.fs.ReadDir(s.runsDir())
	if err != nil {
		return 0, 0
	}
	var keys []Key
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		key, ok := ParseKeyFilename(e.Name())
		if !ok || key.String() != e.Name() {
			// Not a canonical artifact name: it can never be addressed
			// by Get, so treat it as corruption.
			s.quarantine(filepath.Join(s.runsDir(), e.Name()), "unparseable artifact name")
			quarantined++
			continue
		}
		keys = append(keys, key)
	}

	var next, passed atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(keys)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]byte, scratchSize)
			for i := next.Add(1) - 1; i < int64(len(keys)); i = next.Add(1) - 1 {
				_, err := s.verify(keys[i], false, scratch)
				switch {
				case err == nil:
					passed.Add(1)
				case errors.Is(err, fs.ErrNotExist):
					// A key directory without a manifest is no commit
					// (commits rename a staged directory holding its
					// manifest), and left in place it would refuse
					// every recommit of its key.
					s.quarantine(s.dirOf(keys[i]), "manifest: missing")
				}
			}
		}()
	}
	wg.Wait()
	verified = int(passed.Load())
	return verified, quarantined + len(keys) - verified
}
