package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/evolve"
	"repro/internal/store"
	"repro/internal/trace"
)

// This file attaches the run cache's disk tier and holds the scalar
// run's store codec. When a persistent store is attached (the daemon
// does this at boot), every cache miss of any kind first consults the
// store — a committed artifact rehydrates into the same immutable
// entry an in-process evolution would have produced — and every
// freshly computed run is committed back. The in-memory singleflight
// layer stays authoritative for request coalescing; the store only
// changes what a cold miss costs: a disk read instead of an evolution.
//
// Scalar artifact layout (under the store's integrity manifest):
//
//	history.json   — schema-stamped GenStats slice + solved/seed
//	population.bin — the final population, the binary document
//	                 neat's Save writes (the checkpoint format)
//	trace.txt      — the reproduction trace
//
// GenStats fields are float64/int64 and Go's JSON encoding of float64
// is exact (shortest round-trip representation), so a replayed history
// is byte-identical to the computed one after re-marshaling — the
// property the durability test pins.

// runSchema stamps history.json; a mismatch means the artifact was
// written by an incompatible build and must recompute.
const runSchema = "genesys-run/2"

const (
	historyFile    = "history.json"
	populationFile = "population.bin"
	traceFile      = "trace.txt"
)

// historyDoc is the history.json payload.
type historyDoc struct {
	Schema  string            `json:"schema"`
	Solved  bool              `json:"solved"`
	Seed    uint64            `json:"seed"`
	History []evolve.GenStats `json:"history"`
}

// activeStore is the attached disk tier (nil = memory-only, the
// default for CLIs and tests).
var activeStore atomic.Pointer[store.Store]

// UseStore attaches (or with nil detaches) the persistent run store
// every run tier reads through and writes back to.
func UseStore(s *store.Store) { activeStore.Store(s) }

// encodeRun renders a scalar run as its three payload files.
func encodeRun(key store.Key, e *evolved) (map[string][]byte, error) {
	history, err := json.Marshal(&historyDoc{Schema: runSchema, Solved: e.solved, Seed: key.Seed, History: e.runner.History})
	if err != nil {
		return nil, err
	}
	var tr bytes.Buffer
	pop, err := e.runner.Pop.Save()
	if err == nil {
		_, err = e.trace.WriteTo(&tr)
	}
	if err != nil {
		return nil, err
	}
	return map[string][]byte{historyFile: history, populationFile: pop, traceFile: tr.Bytes()}, nil
}

// decodeRun rebuilds the immutable run entry from committed payloads:
// the history replays verbatim, the population restores through the
// checkpoint decoder (with full genome validation), and the trace
// re-parses.
func decodeRun(key store.Key, art *store.Artifact) (*evolved, error) {
	var doc historyDoc
	if err := json.Unmarshal(art.Files[historyFile], &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", historyFile, err)
	}
	if doc.Schema != runSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", historyFile, doc.Schema, runSchema)
	}
	if doc.Seed != key.Seed {
		return nil, fmt.Errorf("%s: seed %d, want %d", historyFile, doc.Seed, key.Seed)
	}
	r, err := evolve.RestoreRunner(key.Workload, art.Files[populationFile], key.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", populationFile, err)
	}
	parsed, err := trace.Parse(bytes.NewReader(art.Files[traceFile]))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", traceFile, err)
	}
	r.History = doc.History
	return &evolved{runner: r, trace: parsed, solved: doc.Solved}, nil
}

// runDoc is the one-file payload of the island and Pareto kinds: the
// schema stamp and the run exactly as JSON-encoded, its genomes binary
// records in base64.
type runDoc[R any] struct {
	Schema string `json:"schema"`
	Run    R      `json:"run"`
}

// encodeDoc renders run as the schema-stamped file.
func encodeDoc[R any](file, schema string, run R) (map[string][]byte, error) {
	b, err := json.Marshal(&runDoc[R]{Schema: schema, Run: run})
	return map[string][]byte{file: b}, err
}

// decodeDoc parses the schema-stamped file; the caller checks the run
// against its key.
func decodeDoc[R any](art *store.Artifact, file, schema string) (R, error) {
	var doc runDoc[R]
	if err := json.Unmarshal(art.Files[file], &doc); err != nil {
		return doc.Run, fmt.Errorf("%s: %w", file, err)
	}
	if doc.Schema != schema {
		return doc.Run, fmt.Errorf("%s: schema %q, want %q", file, doc.Schema, schema)
	}
	return doc.Run, nil
}
