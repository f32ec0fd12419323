// Package store is the persistent, content-addressed run store: the
// on-disk half of the experiment harness's singleflight run cache.
// Completed evolution runs — their generation histories, final
// populations, and reproduction traces — are committed as checksummed
// artifacts addressed by the same (workload, population, generations,
// seed) tuple the in-memory cache keys on, so a run computed once
// survives daemon restarts and replays from disk instead of
// re-evolving. This is what makes a heavy-traffic deployment
// plausible: most submissions become a disk-or-memory hit that never
// touches the evolution engine.
//
// Robustness is the design center, mirroring the hardware side's
// fault discipline (internal/hw/fault): the serving layer deserves
// the same treatment the SRAM and NoC get.
//
//   - Atomic commits: an artifact is staged under tmp/ and renamed
//     into runs/ only once every payload and the manifest are fully
//     written. Readers can never observe a half-committed artifact;
//     a crash mid-commit leaves only a tmp/ orphan that startup
//     recovery sweeps once it is an hour old.
//   - Checksummed manifests: every payload file's SHA-256 and size
//     are recorded in a manifest written last. Reads verify before
//     trusting.
//   - Corruption-tolerant reads: a bad artifact (torn write, bit rot,
//     hand-editing) is quarantined — moved aside with its reason, the
//     key freed — and the caller sees a miss, so the run transparently
//     recomputes instead of failing the job.
//   - Verified boots: Recover holds every committed payload byte to its
//     manifest before the daemon serves, with the check Get makes,
//     streamed on GOMAXPROCS workers. A boot is not a use: it leaves
//     each artifact's recency (last hit or commit) where it was.
//   - Deterministic fault injection: the FS seam (fs.go) accepts a
//     seeded FaultFS so every degradation path above is exercised by
//     tests, not just argued about.
//
// All Store methods are safe for concurrent use. Multiple processes
// may share one store root: each Store stages under names no other
// Store picks, commits are atomic renames, sweeps remove only staging
// too old to have a live writer, and duplicate commits of a key are
// idempotent (evolution is deterministic, so two processes committing
// the same key wrote the same bytes). They may share one checkpoint
// directory too: a run key has one checkpoint file, and every save
// stages through a file of its own before its rename (Checkpoints).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hw/hwsim"
)

// Schema is the manifest schema identifier; a manifest with any other
// value is treated as corrupt.
const Schema = "genesys-store/1"

// manifestFile is the per-artifact integrity record, written last
// during a commit.
const manifestFile = "manifest.json"

// reasonFile records why an artifact was quarantined (best-effort).
const reasonFile = "REASON"

// staleAfter is how old a staging entry (a commit's tmp/ directory, a
// checkpoint save's staging file) must be before a sweep removes it.
// A commit or a save takes milliseconds, so an entry this old has no
// live writer, whichever process sharing the store made it.
const staleAfter = time.Hour

// Key identifies one unique evolution run — the exact tuple the
// in-memory run cache keys on. Its canonical string form doubles as
// the artifact directory name and the checkpoint file stem, so the
// store, the scheduler's checkpoint files, and the cache all agree on
// identity by construction.
type Key struct {
	Workload    string `json:"workload"`
	Population  int    `json:"population"`
	Generations int    `json:"generations"`
	Seed        uint64 `json:"seed"`
	// Islands/MigrationEvery extend the tuple for island-model runs
	// (both zero for ordinary runs — the PR 7 key space is unchanged).
	// An island run is a different computation than an ordinary run of
	// the same (workload, pop, gens, seed), so the fields are part of
	// identity.
	Islands        int `json:"islands,omitempty"`
	MigrationEvery int `json:"migration_every,omitempty"`
	// Objectives extends the tuple for Pareto (multi-objective) runs:
	// the objective vector in identity order, joined with '+'
	// (e.g. "fitness+genes+energy"; empty for scalar runs). Vector
	// order is part of identity — it fixes the NSGA-II lexicographic
	// pre-sort and crowding accumulation order. Mutually exclusive
	// with the island fields.
	Objectives string `json:"objectives,omitempty"`
}

// String renders the canonical form, e.g. "cartpole-p64-g30-s42";
// island runs append the island fields: "cartpole-p64-g30-s42-i4-m5";
// Pareto runs append the objective vector:
// "cartpole-p64-g30-s42-ofitness+genes+energy".
func (k Key) String() string {
	base := fmt.Sprintf("%s-p%d-g%d-s%d", k.Workload, k.Population, k.Generations, k.Seed)
	if k.Islands > 0 {
		base += fmt.Sprintf("-i%d-m%d", k.Islands, k.MigrationEvery)
	}
	if k.Objectives != "" {
		base += "-o" + k.Objectives
	}
	return base
}

// validate rejects keys that cannot address a sane artifact directory.
func (k Key) validate() error {
	if k.Workload == "" {
		return fmt.Errorf("store: empty workload")
	}
	for _, r := range k.Workload {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("store: workload %q: invalid character %q", k.Workload, r)
		}
	}
	if k.Population <= 0 {
		return fmt.Errorf("store: population %d", k.Population)
	}
	if k.Generations <= 0 {
		return fmt.Errorf("store: generations %d", k.Generations)
	}
	if k.Islands != 0 || k.MigrationEvery != 0 {
		if k.Islands < 2 {
			return fmt.Errorf("store: islands %d (need >= 2)", k.Islands)
		}
		if k.MigrationEvery < 1 {
			return fmt.Errorf("store: migration_every %d (need >= 1)", k.MigrationEvery)
		}
	}
	if k.Objectives != "" {
		if k.Islands != 0 {
			return fmt.Errorf("store: objectives and islands are mutually exclusive")
		}
		for _, seg := range strings.Split(k.Objectives, "+") {
			if seg == "" {
				return fmt.Errorf("store: objectives %q: empty segment", k.Objectives)
			}
			for _, r := range seg {
				if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' {
					return fmt.Errorf("store: objectives %q: invalid character %q", k.Objectives, r)
				}
			}
		}
	}
	return nil
}

// ParseKeyFilename is the inverse of Key.String and of a checkpoint's
// file name: it recovers a Key from an artifact or checkpoint name of
// the canonical form
//
//	<workload>-p<P>-g<G>-s<S>[-i<I>-m<M>][-o<objectives>][.ckpt]
//
// Workload names may themselves contain dashes, so the numeric fields
// parse from the right; the optional island and objectives fields are
// accepted only when they parse round-trip clean, otherwise the name
// is re-read as an ordinary key (a workload legitimately ending in
// "-i3-m2" or "-ofoo" is impossible to confuse because the strict
// round-trips and key validation arbitrate). It reports false for
// anything else.
func ParseKeyFilename(name string) (Key, bool) {
	name = strings.TrimSuffix(name, ".ckpt")
	if k, ok := parseKeyName(name, false, true); ok {
		return k, true
	}
	if k, ok := parseKeyName(name, true, false); ok {
		return k, true
	}
	return parseKeyName(name, false, false)
}

// parseKeyName parses one canonical key name, optionally consuming the
// trailing island or objectives fields (mutually exclusive in valid
// keys, so the two are never requested together).
func parseKeyName(name string, islandFields, objectiveField bool) (Key, bool) {
	var k Key
	cut := func(sep string) (string, bool) {
		i := strings.LastIndex(name, sep)
		if i < 0 {
			return "", false
		}
		field := name[i+len(sep):]
		name = name[:i]
		return field, true
	}
	// numeric enforces an exact round-trip, so "07" or "3x" never parse.
	numeric := func(field string, dst *int) bool {
		if _, err := fmt.Sscanf(field, "%d", dst); err != nil || fmt.Sprintf("%d", *dst) != field {
			return false
		}
		return true
	}
	if objectiveField {
		o, ok := cut("-o")
		if !ok || o == "" {
			return Key{}, false
		}
		k.Objectives = o
	}
	if islandFields {
		m, ok := cut("-m")
		if !ok || !numeric(m, &k.MigrationEvery) {
			return Key{}, false
		}
		i, ok := cut("-i")
		if !ok || !numeric(i, &k.Islands) {
			return Key{}, false
		}
	}
	s, ok := cut("-s")
	if !ok {
		return Key{}, false
	}
	g, ok := cut("-g")
	if !ok {
		return Key{}, false
	}
	p, ok := cut("-p")
	if !ok {
		return Key{}, false
	}
	if _, err := fmt.Sscanf(s, "%d", &k.Seed); err != nil || fmt.Sprintf("%d", k.Seed) != s {
		return Key{}, false
	}
	if !numeric(g, &k.Generations) || !numeric(p, &k.Population) {
		return Key{}, false
	}
	k.Workload = name
	if k.validate() != nil {
		return Key{}, false
	}
	return k, true
}

// Meta is the artifact's summary record, kept in its manifest: the
// outcome the job that committed it reported. Get returns it with the
// payloads; no admin surface lists it.
type Meta struct {
	Solved      bool    `json:"solved"`
	BestFitness float64 `json:"best_fitness"`
	Generations int     `json:"generations"`
}

// fileEntry is one payload file's integrity record.
type fileEntry struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// manifest is the checksummed per-artifact integrity record.
type manifest struct {
	Schema      string      `json:"schema"`
	Key         Key         `json:"key"`
	Meta        Meta        `json:"meta"`
	CreatedUnix int64       `json:"created_unix"`
	Files       []fileEntry `json:"files"`
}

// decodeManifest parses and validates manifest bytes. Anything it
// rejects is corruption: the caller quarantines. It never panics on
// arbitrary input (pinned by FuzzManifest).
func decodeManifest(data []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("schema %q, want %q", m.Schema, Schema)
	}
	if err := m.Key.validate(); err != nil {
		return nil, err
	}
	if len(m.Files) == 0 {
		return nil, fmt.Errorf("manifest lists no files")
	}
	seen := map[string]bool{}
	for _, fe := range m.Files {
		if fe.Name == "" || fe.Name == manifestFile || fe.Name == reasonFile ||
			strings.ContainsAny(fe.Name, `/\`) || strings.Contains(fe.Name, "..") {
			return nil, fmt.Errorf("bad file name %q", fe.Name)
		}
		if seen[fe.Name] {
			return nil, fmt.Errorf("duplicate file %q", fe.Name)
		}
		seen[fe.Name] = true
		if fe.Size < 0 {
			return nil, fmt.Errorf("file %q: negative size", fe.Name)
		}
		if len(fe.SHA256) != hex.EncodedLen(sha256.Size) {
			return nil, fmt.Errorf("file %q: bad digest length", fe.Name)
		}
		if _, err := hex.DecodeString(fe.SHA256); err != nil {
			return nil, fmt.Errorf("file %q: bad digest: %w", fe.Name, err)
		}
	}
	return &m, nil
}

// Artifact is one verified read: the payload files exactly as
// committed.
type Artifact struct {
	Key   Key
	Meta  Meta
	Files map[string][]byte
}

// Config tunes a store. Zero values select the defaults.
type Config struct {
	// Root is the store directory (created on Open).
	Root string
	// MaxBytes bounds the total payload bytes under runs/; GC evicts
	// least-recently-used artifacts over the budget. 0 = unlimited.
	MaxBytes int64
	// MaxAge bounds artifact idle time (since last hit or commit; a
	// boot's Recover is neither); GC evicts older ones. 0 = unlimited.
	MaxAge time.Duration
	// CheckpointDir, when set, is the directory of the store's
	// checkpoint handle (Store.Checkpoints), which goes through FS like
	// every other store file, and it is swept by GC and Recover:
	// checkpoint files of completed runs (their artifact exists) are
	// removed, stale ones past CheckpointMaxAge are removed, and orphaned
	// ones are reported by Recover for re-enqueueing.
	CheckpointDir string
	// CheckpointMaxAge bounds how long an orphaned checkpoint may sit
	// before GC reclaims it (a cancelled job whose spec is never
	// resubmitted would otherwise leak its checkpoint forever).
	// 0 = unlimited.
	CheckpointMaxAge time.Duration
	// FS is the filesystem seam; nil means the real OS filesystem. A
	// FaultFS here makes every degradation path deterministic.
	FS FS
	// Now is the clock seam for GC age decisions; nil means time.Now.
	Now func() time.Time
}

// Store is one opened artifact store.
type Store struct {
	cfg Config
	fs  FS
	now func() time.Time

	// mu serializes structural transitions (commit renames, quarantine
	// moves, GC, recovery). Reads verify immutable committed artifacts
	// and only take mu if they need to quarantine.
	mu  sync.Mutex
	seq atomic.Int64
	// token, drawn at Open, makes this Store's staging and quarantine
	// names unique among every Store sharing the root.
	token string
	// ckpts is the handle on CheckpointDir, nil when it is unset.
	ckpts *Checkpoints

	counters *hwsim.Counters
	ops      *hwsim.Counters
	gcCtr    *hwsim.Counters
}

// Open initializes the store layout under cfg.Root.
func Open(cfg Config) (*Store, error) {
	s := &Store{cfg: cfg, fs: cfg.FS, now: cfg.Now, token: fmt.Sprintf("%08x", rand.Uint32())}
	if s.fs == nil {
		s.fs = OSFS{}
	}
	if s.now == nil {
		s.now = time.Now
	}
	for _, dir := range []string{s.runsDir(), s.tmpDir(), s.quarDir()} {
		if err := s.fs.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	if cfg.CheckpointDir != "" {
		s.ckpts = NewCheckpoints(cfg.CheckpointDir, s.fs)
	}
	s.counters = hwsim.New("store")
	s.ops = s.counters.Child("ops")
	s.gcCtr = s.counters.Child("gc")
	s.counters.Child("disk").OnSnapshot(func(c *hwsim.Counters) {
		n, bytes := s.diskUsage()
		c.SetInt("artifacts", int64(n))
		c.SetInt("bytes", bytes)
		c.SetInt("quarantine_entries", int64(len(s.Quarantined())))
	})
	return s, nil
}

// Counters exposes the store's hwsim registry node (mounted under the
// daemon's /metrics tree as "store").
func (s *Store) Counters() *hwsim.Counters { return s.counters }

// Checkpoints returns the handle on the store's checkpoint directory,
// nil when Config.CheckpointDir is unset. Its file operations go
// through the store's FS, so a FaultFS faults checkpoints too.
func (s *Store) Checkpoints() *Checkpoints { return s.ckpts }

func (s *Store) runsDir() string { return filepath.Join(s.cfg.Root, "runs") }
func (s *Store) tmpDir() string  { return filepath.Join(s.cfg.Root, "tmp") }
func (s *Store) quarDir() string { return filepath.Join(s.cfg.Root, "quarantine") }

// dirOf is the committed location of one key's artifact.
func (s *Store) dirOf(key Key) string { return filepath.Join(s.runsDir(), key.String()) }

// uniqueName suffixes name so that no other staging or quarantine entry
// of any Store on the root gets it.
func (s *Store) uniqueName(name string) string {
	return fmt.Sprintf("%s.%s-%d", name, s.token, s.seq.Add(1))
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Has reports whether a committed artifact exists for the key (no
// payload verification — a cheap existence probe for GC and recovery):
// its manifest is a regular file. A manifest of any other kind is
// corruption for Get or Recover to quarantine, not a commit.
func (s *Store) Has(key Key) bool {
	info, err := s.fs.Stat(filepath.Join(s.dirOf(key), manifestFile))
	return err == nil && info.Mode().IsRegular()
}

// Put commits one artifact: payload files staged under tmp/, manifest
// written last, then one atomic rename into runs/. A key that already
// has an artifact is left untouched (runs are deterministic, so the
// existing bytes are the same result). Commit failures are accounted
// and returned but are safe to ignore — the store degrades to a
// cache miss, never to wrong data.
func (s *Store) Put(key Key, meta Meta, files map[string][]byte) error {
	if err := key.validate(); err != nil {
		s.ops.AddInt("commit_errors", 1)
		return err
	}
	if len(files) == 0 {
		s.ops.AddInt("commit_errors", 1)
		return fmt.Errorf("store: put %s: no files", key)
	}
	if s.Has(key) {
		s.ops.AddInt("duplicate_commits", 1)
		return nil
	}

	staging := filepath.Join(s.tmpDir(), s.uniqueName(key.String()))
	fail := func(err error) error {
		s.fs.RemoveAll(staging)
		s.ops.AddInt("commit_errors", 1)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := s.fs.MkdirAll(staging, 0o755); err != nil {
		return fail(err)
	}

	man := manifest{Schema: Schema, Key: key, Meta: meta, CreatedUnix: s.now().Unix()}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var written int64
	for _, name := range names {
		if name == "" || name == manifestFile || name == reasonFile ||
			strings.ContainsAny(name, `/\`) || strings.Contains(name, "..") {
			return fail(fmt.Errorf("bad file name %q", name))
		}
		data := files[name]
		if err := s.fs.WriteFile(filepath.Join(staging, name), data, 0o644); err != nil {
			return fail(err)
		}
		man.Files = append(man.Files, fileEntry{Name: name, SHA256: digest(data), Size: int64(len(data))})
		written += int64(len(data))
	}
	manData, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := s.fs.WriteFile(filepath.Join(staging, manifestFile), manData, 0o644); err != nil {
		return fail(err)
	}

	s.mu.Lock()
	err = s.fs.Rename(staging, s.dirOf(key))
	s.mu.Unlock()
	if err != nil {
		s.fs.RemoveAll(staging)
		if s.Has(key) {
			// Lost a benign race: someone committed the identical result
			// first.
			s.ops.AddInt("duplicate_commits", 1)
			return nil
		}
		s.ops.AddInt("commit_errors", 1)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	s.ops.AddInt("commits", 1)
	s.ops.AddInt("bytes_written", written)
	return nil
}

// Get reads and verifies one artifact. A miss returns (nil, false); so
// does any integrity failure — manifest undecodable, key mismatch,
// payload size or checksum wrong — after the artifact is quarantined,
// so the caller's recompute can commit a fresh one under the same key.
// A hit counts as a use: it stamps the artifact's recency for GC.
func (s *Store) Get(key Key) (*Artifact, bool) {
	art, err := s.verify(key, true, nil)
	if err != nil {
		s.ops.AddInt("misses", 1)
		return nil, false
	}
	var read int64
	for _, b := range art.Files {
		read += int64(len(b))
	}
	s.ops.AddInt("hits", 1)
	s.ops.AddInt("bytes_read", read)
	// Stamp recency for the GC's LRU ordering (best-effort).
	now := s.now()
	s.fs.Chtimes(filepath.Join(s.dirOf(key), manifestFile), now, now)
	return art, true
}

// errCorrupt is verify's report of an artifact it has quarantined.
var errCorrupt = errors.New("store: artifact failed verification")

// verify holds key's committed artifact to its manifest: the manifest
// decodes and names key, and every payload has the size and SHA-256
// the manifest records. Any failure quarantines the artifact and
// returns errCorrupt, and so does a manifest that is not a regular
// file; any other manifest that cannot be read returns its read error
// and quarantines nothing. verify neither counts the read nor
// stamps recency; that is Get's business. With keep the payload bytes
// come back in the Artifact; without, they stream through scratch and
// are dropped.
func (s *Store) verify(key Key, keep bool, scratch []byte) (*Artifact, error) {
	dir := s.dirOf(key)
	manPath := filepath.Join(dir, manifestFile)
	data, err := s.fs.ReadFile(manPath)
	if err != nil {
		if info, serr := s.fs.Stat(manPath); serr == nil && !info.Mode().IsRegular() {
			s.quarantine(dir, "manifest: not a regular file")
			return nil, errCorrupt
		}
		return nil, err
	}
	man, err := decodeManifest(data)
	if err != nil {
		s.quarantine(dir, fmt.Sprintf("manifest: %v", err))
		return nil, errCorrupt
	}
	if man.Key != key {
		s.quarantine(dir, fmt.Sprintf("manifest key %s under directory for %s", man.Key, key))
		return nil, errCorrupt
	}
	art := &Artifact{Key: key, Meta: man.Meta}
	if keep {
		art.Files = make(map[string][]byte, len(man.Files))
	}
	for _, fe := range man.Files {
		b, err := s.checkPayload(filepath.Join(dir, fe.Name), fe, keep, scratch)
		if err != nil {
			s.quarantine(dir, fmt.Sprintf("payload %s: %v", fe.Name, err))
			return nil, errCorrupt
		}
		if keep {
			art.Files[fe.Name] = b
		}
	}
	return art, nil
}

// checkPayload streams one payload file through SHA-256 and holds it
// to its manifest entry. It reads at most one byte past fe.Size, so a
// longer file fails without being read whole, and it never sizes a
// buffer from fe.Size alone: a corrupt manifest may claim any size. A
// kept payload is read straight into a buffer sized by the file;
// otherwise the bytes pass through scratch.
func (s *Store) checkPayload(path string, fe fileEntry, keep bool, scratch []byte) ([]byte, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	r := io.LimitReader(f, fe.Size+1)
	var kept bytes.Buffer
	var n int64
	if keep {
		if info, err := f.Stat(); err == nil {
			kept.Grow(int(min(info.Size(), fe.Size)) + bytes.MinRead)
		}
		n, err = kept.ReadFrom(io.TeeReader(r, h))
	} else {
		n, err = io.CopyBuffer(h, r, scratch)
	}
	switch {
	case err != nil:
		return nil, err
	case n > fe.Size:
		return nil, fmt.Errorf("more than the %d bytes the manifest says", fe.Size)
	case n < fe.Size:
		return nil, fmt.Errorf("%d bytes, manifest says %d", n, fe.Size)
	case hex.EncodeToString(h.Sum(nil)) != fe.SHA256:
		return nil, errors.New("checksum mismatch")
	}
	return kept.Bytes(), nil
}

// QuarantineKey moves a key's artifact aside. It is the seam for the
// decode layer above the store: an artifact whose bytes verify but
// whose payload fails semantic decoding is just as corrupt as a
// checksum mismatch.
func (s *Store) QuarantineKey(key Key, reason string) {
	s.quarantine(s.dirOf(key), reason)
}

// quarantine moves an artifact directory into quarantine/ (or removes
// it if the move fails), freeing the key for a fresh recompute.
func (s *Store) quarantine(dir, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.fs.Stat(dir); err != nil {
		return // already quarantined by a concurrent reader
	}
	dest := filepath.Join(s.quarDir(), s.uniqueName(filepath.Base(dir)))
	if err := s.fs.Rename(dir, dest); err != nil {
		// A poisoned artifact must never wedge its key: removal is the
		// fallback when the move itself fails.
		s.fs.RemoveAll(dir)
	} else {
		// Best-effort breadcrumb for the admin surface.
		s.fs.WriteFile(filepath.Join(dest, reasonFile), []byte(reason+"\n"), 0o644)
	}
	s.ops.AddInt("quarantined", 1)
}

// QuarantineEntry describes one quarantined artifact.
type QuarantineEntry struct {
	Name   string `json:"name"`
	Reason string `json:"reason,omitempty"`
	Bytes  int64  `json:"bytes"`
}

// Quarantined lists the quarantine directory, oldest name first.
func (s *Store) Quarantined() []QuarantineEntry {
	entries, err := s.fs.ReadDir(s.quarDir())
	if err != nil {
		return nil
	}
	out := make([]QuarantineEntry, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		q := QuarantineEntry{Name: e.Name()}
		dir := filepath.Join(s.quarDir(), e.Name())
		if b, err := s.fs.ReadFile(filepath.Join(dir, reasonFile)); err == nil {
			q.Reason = strings.TrimSpace(string(b))
		}
		q.Bytes = s.dirBytes(dir)
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PurgeQuarantine deletes every quarantined artifact, returning how
// many were removed.
func (s *Store) PurgeQuarantine() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.fs.ReadDir(s.quarDir())
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if s.fs.RemoveAll(filepath.Join(s.quarDir(), e.Name())) == nil {
			n++
		}
	}
	return n
}

// Stats is the admin-surface snapshot of the store.
type Stats struct {
	Artifacts         int   `json:"artifacts"`
	DiskBytes         int64 `json:"disk_bytes"`
	QuarantineEntries int   `json:"quarantine_entries"`
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	Quarantined       int64 `json:"quarantined"`
	Commits           int64 `json:"commits"`
	CommitErrors      int64 `json:"commit_errors"`
	DuplicateCommits  int64 `json:"duplicate_commits"`
	EvictedAge        int64 `json:"evicted_age"`
	EvictedSize       int64 `json:"evicted_size"`
	BytesReclaimed    int64 `json:"bytes_reclaimed"`
	CheckpointsSwept  int64 `json:"checkpoints_swept"`
}

// Stats scans the store and reads the op counters.
func (s *Store) Stats() Stats {
	n, bytes := s.diskUsage()
	return Stats{
		Artifacts:         n,
		DiskBytes:         bytes,
		QuarantineEntries: len(s.Quarantined()),
		Hits:              s.ops.IntValue("hits"),
		Misses:            s.ops.IntValue("misses"),
		Quarantined:       s.ops.IntValue("quarantined"),
		Commits:           s.ops.IntValue("commits"),
		CommitErrors:      s.ops.IntValue("commit_errors"),
		DuplicateCommits:  s.ops.IntValue("duplicate_commits"),
		EvictedAge:        s.gcCtr.IntValue("evicted_age"),
		EvictedSize:       s.gcCtr.IntValue("evicted_size"),
		BytesReclaimed:    s.gcCtr.IntValue("bytes_reclaimed"),
		CheckpointsSwept:  s.gcCtr.IntValue("checkpoints_swept"),
	}
}

// diskUsage sums committed artifacts and their payload bytes.
func (s *Store) diskUsage() (artifacts int, bytes int64) {
	entries, err := s.fs.ReadDir(s.runsDir())
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		artifacts++
		bytes += s.dirBytes(filepath.Join(s.runsDir(), e.Name()))
	}
	return artifacts, bytes
}

// dirBytes sums the file sizes directly under dir.
func (s *Store) dirBytes(dir string) int64 {
	files, err := s.fs.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, f := range files {
		if info, err := f.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}
