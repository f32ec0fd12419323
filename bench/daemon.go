package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
	"repro/internal/serve"
	"repro/internal/store"
)

// clients is the number of load-generating clients and the cap on HTTP
// connections to the daemon: one per CPU, like the daemon's workers.
var clients = runtime.NumCPU()

// daemon is one in-process genesysd: the scheduler and HTTP surface
// cmd/genesysd builds from its default flags, with a run store and a
// checkpoint directory, listening on a loopback port.
type daemon struct {
	ckpt   string
	store  *store.Store
	sched  *serve.Scheduler
	srv    *http.Server
	served chan struct{}
	client *serve.Client
}

// openStore opens a run store under dir the way genesysd -store-dir
// -checkpoint-dir does with its other store flags at their defaults.
func openStore(dir string) (*store.Store, error) {
	ckpt := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		return nil, err
	}
	return store.Open(store.Config{
		Root:             filepath.Join(dir, "store"),
		CheckpointDir:    ckpt,
		CheckpointMaxAge: 24 * time.Hour,
	})
}

// startDaemon boots a daemon on st, running the store's recovery pass
// first as genesysd does.
func startDaemon(st *store.Store, ckpt string) (*daemon, error) {
	sched := serve.NewScheduler(serve.Config{
		MaxRunning:        runtime.NumCPU(),
		MaxQueue:          16,
		RunnerParallelism: 1,
		CheckpointDir:     ckpt,
		CheckpointEvery:   5,
		Store:             st,
	})
	sched.Recover()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Drain(0)
		return nil, err
	}
	d := &daemon{
		ckpt:   ckpt,
		store:  st,
		sched:  sched,
		srv:    &http.Server{Handler: serve.NewServer(sched)},
		served: make(chan struct{}),
		client: &serve.Client{
			Base: "http://" + ln.Addr().String(),
			HTTP: &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}},
			Name: "bench",
		},
	}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	return d, nil
}

// stop drains the scheduler and closes the HTTP server and client.
func (d *daemon) stop() {
	d.sched.Drain(time.Minute)
	d.srv.Close()
	<-d.served
	d.client.HTTP.CloseIdleConnections()
}

// restart stands in for a daemon process restart on the same store:
// the scheduler and the process-wide run cache start empty, the store
// keeps its runs.
func (d *daemon) restart() (*daemon, error) {
	d.stop()
	experiments.ResetCaches()
	return startDaemon(d.store, d.ckpt)
}

// jobResult is one job as its client saw it.
type jobResult struct {
	spec   serve.Spec
	status serve.Status // from the done event
	// Client clock: submit call, submit reply, first record, done event.
	start, submitted, first, done time.Time
	records                       int
	digest                        [sha256.Size]byte // of the re-encoded record stream
	err                           error
}

func (r *jobResult) ok() bool { return r.err == nil && r.status.State == serve.StateDone }

// streamDigest hashes a record stream as the JSON encoding of each
// record, one per line, so two streams compare byte for byte.
type streamDigest struct{ h hash.Hash }

func newStreamDigest() streamDigest { return streamDigest{sha256.New()} }

func (s streamDigest) add(rec hwsim.Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.h.Write(append(data, '\n'))
	return nil
}

func (s streamDigest) sum() (out [sha256.Size]byte) {
	copy(out[:], s.h.Sum(nil))
	return out
}

func submit(ctx context.Context, c *serve.Client, spec serve.Spec) jobResult {
	r := jobResult{spec: spec, start: time.Now()}
	r.status, r.err = c.Submit(ctx, spec)
	r.submitted = time.Now()
	return r
}

func watch(ctx context.Context, c *serve.Client, r *jobResult) {
	if r.err != nil {
		return
	}
	dig := newStreamDigest()
	final, err := c.Watch(ctx, r.status.ID, func(rec hwsim.Record) error {
		if r.records == 0 {
			r.first = time.Now()
		}
		r.records++
		return dig.add(rec)
	})
	r.done = time.Now()
	if err != nil {
		r.err = fmt.Errorf("watch %s: %w", r.status.ID, err)
		return
	}
	r.status, r.digest = final, dig.sum()
	if final.State != serve.StateDone {
		r.err = fmt.Errorf("%s ended %s: %s", final.ID, final.State, final.Error)
	} else if r.records == 0 {
		r.err = fmt.Errorf("%s streamed no records", final.ID)
	}
}

// drive runs one batch on the clients. In a closed loop each client
// submits its next job only after its previous job's done event; in a
// wave client k submits jobs k, k+clients, … at once, then watches them
// in that order.
func drive(ctx context.Context, c *serve.Client, batch []serve.Spec, wave bool) []jobResult {
	res := make([]jobResult, len(batch))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if wave {
				for i := k; i < len(batch); i += clients {
					res[i] = submit(ctx, c, batch[i])
				}
				for i := k; i < len(batch); i += clients {
					watch(ctx, c, &res[i])
				}
				return
			}
			for i := int(next.Add(1)) - 1; i < len(batch); i = int(next.Add(1)) - 1 {
				res[i] = submit(ctx, c, batch[i])
				watch(ctx, c, &res[i])
			}
		}(k)
	}
	wg.Wait()
	return res
}

// counterPaths are the /metrics counters a pass accumulates.
var counterPaths = []string{
	"jobs/completed", "jobs/shared_cache", "jobs/shed",
	"stream/records_streamed", "stream/sse_dropped",
	"cache/evolutions_executed",
	"phases/generations", "phases/evaluate_ns", "phases/speciate_ns", "phases/reproduce_ns",
	"store/ops/hits", "store/ops/misses", "store/ops/commits", "store/ops/bytes_read",
	"store/ops/bytes_written", "store/ops/commit_errors", "store/ops/quarantined",
}

// pass is one measured run of a plan's batches against the daemon.
type pass struct {
	results  []jobResult
	secs     float64            // wall time of the batches, restarts included
	counters map[string]float64 // summed /metrics deltas over the batches
	gcFrac   float64            // GC share of the process's CPU time
}

// measure runs every batch of p, restarting the daemon before each one
// when the plan asks. Counters are read over HTTP around each batch, so
// a restart (which starts the scheduler's counters from zero) loses
// nothing.
func (b *bench) measure(ctx context.Context, p plan) (pass, error) {
	out := pass{counters: map[string]float64{}}
	gc0, cpu0 := gcCPUSeconds()
	for _, batch := range p.batches {
		start := time.Now()
		if p.restart {
			d, err := b.d.restart()
			if err != nil {
				return out, err
			}
			b.d = d
		}
		before, err := b.d.client.Metrics(ctx)
		if err != nil {
			return out, err
		}
		res := drive(ctx, b.d.client, batch, p.wave)
		out.secs += time.Since(start).Seconds()
		out.results = append(out.results, res...)
		after, err := b.d.client.Metrics(ctx)
		if err != nil {
			return out, err
		}
		for _, path := range counterPaths {
			v1, _ := after.Value(path)
			v0, _ := before.Value(path)
			out.counters[path] += v1 - v0
		}
	}
	gc1, cpu1 := gcCPUSeconds()
	if cpu1 > cpu0 {
		out.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	return out, ctx.Err()
}

// failures counts the jobs of a pass that did not reach done, which
// covers shed, rejected, failed and cancelled jobs and watch errors.
func (p pass) failures() (n int, first error) {
	for i := range p.results {
		if r := &p.results[i]; !r.ok() {
			n++
			if first == nil {
				first = fmt.Errorf("%s: %w", keyOf(r.spec), r.err)
			}
		}
	}
	return n, first
}

// keyOf is a spec's run identity, the store key the daemon uses for it.
func keyOf(sp serve.Spec) store.Key {
	return store.Key{
		Workload: sp.Workload, Population: sp.Population, Generations: sp.Generations, Seed: sp.Seed,
		Islands: sp.Islands, MigrationEvery: sp.MigrationEvery, Objectives: sp.Objectives,
	}
}
