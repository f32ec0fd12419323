// Command genesysd is the evolution-as-a-service daemon: it accepts
// evolution jobs over a JSON HTTP API, runs them on a bounded
// scheduler backed by the shared run cache (identical submissions
// execute one evolution), streams per-generation records to clients
// as Server-Sent Events, sheds load with 429 + Retry-After instead of
// degrading admitted jobs, and drains gracefully on SIGTERM/SIGINT —
// new work is refused, running jobs get a grace period to finish,
// stragglers are cancelled at a generation boundary with a checkpoint
// so a resubmission resumes where they stopped.
//
// Cluster mode distributes execution across a worker fleet while the
// client-facing surface stays identical: a coordinator
// (-coordinator) owns admission, the run store, and a consistent-hash
// ring over its workers; each worker (-worker -join URL) runs the
// same daemon plus the island session protocol and registers with the
// coordinator, which health-checks it and re-dispatches its jobs on
// death.
//
// Usage:
//
//	genesysd -addr 127.0.0.1:8177 -max-running 4 -queue 16
//	genesysd -addr 127.0.0.1:0 -addr-file /tmp/genesysd.addr -checkpoint-dir /tmp/ckpt
//	genesysd -addr 127.0.0.1:8177 -coordinator -store-dir /tmp/store
//	genesysd -addr 127.0.0.1:0 -worker -join http://127.0.0.1:8177 -checkpoint-dir /tmp/ckpt
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/serve/signalctx"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8177", "listen address (port 0 picks an ephemeral port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		maxRunning = flag.Int("max-running", runtime.NumCPU(), "jobs executing concurrently (worker pool size)")
		queue      = flag.Int("queue", 16, "queued-job cap; submissions beyond it are shed with 429")
		perClient  = flag.Int("per-client", 0, "per-client queued+running cap (0 = unlimited)")
		evalPar    = flag.Int("eval-parallelism", 1, "per-job evaluation worker pool width")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = disabled)")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for job checkpoints; interrupted jobs resume on resubmission")
		ckptEvery  = flag.Int("checkpoint-every", 5, "periodic checkpoint interval in generations (with -checkpoint-dir)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "how long running jobs may finish after SIGTERM before being checkpointed and cancelled")

		storeDir      = flag.String("store-dir", "", "persistent run-store root; completed results survive restarts and replay without re-evolving; the run cache then keeps about 8 MB of stored runs in memory, most recently used first")
		storeMaxBytes = flag.Int64("store-max-bytes", 0, "run-store size budget for GC, LRU eviction past it (0 = unbounded)")
		storeMaxAge   = flag.Duration("store-max-age", 0, "evict run-store artifacts older than this on GC (0 = no age limit)")
		ckptMaxAge    = flag.Duration("checkpoint-max-age", 24*time.Hour, "GC sweeps checkpoints older than this (0 = keep forever)")
		storeGCEvery  = flag.Duration("store-gc-every", 10*time.Minute, "periodic run-store GC interval (0 = on-demand only via POST /store/gc)")

		coordMode   = flag.Bool("coordinator", false, "run as cluster coordinator: dispatch admitted jobs across the joined worker fleet")
		workerMode  = flag.Bool("worker", false, "run as fleet worker: serve the island session protocol and register with -join")
		joinURL     = flag.String("join", "", "coordinator base URL a worker registers with (e.g. http://127.0.0.1:8177)")
		advertise   = flag.String("advertise", "", "base URL this worker advertises to the coordinator (default http://<bound-addr>)")
		workersList = flag.String("workers", "", "comma-separated worker base URLs the coordinator seeds its fleet with at boot")
		hbEvery     = flag.Duration("heartbeat-every", 2*time.Second, "coordinator health-check interval")
		hbTimeout   = flag.Duration("heartbeat-timeout", time.Second, "one health-check request's timeout")
		failAfter   = flag.Int("fail-after", 3, "consecutive failed heartbeats before a worker is marked dead")
	)
	flag.Parse()
	if *coordMode && *workerMode {
		fmt.Fprintln(os.Stderr, "genesysd: -coordinator and -worker are mutually exclusive")
		os.Exit(1)
	}
	if *workerMode && *joinURL == "" {
		fmt.Fprintln(os.Stderr, "genesysd: -worker requires -join <coordinator-url>")
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genesysd:", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "genesysd:", err)
			os.Exit(1)
		}
	}

	// The profiling endpoint lives on its own listener so the pprof
	// surface is never exposed on the API address by accident.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "genesysd: pprof:", err)
			os.Exit(1)
		}
		fmt.Printf("genesysd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "genesysd: pprof:", err)
			}
		}()
	}

	// The checkpoint directory must exist before the first job saves
	// into it: neither store.Open nor a checkpoint handle creates it,
	// with a store or without one (the common fleet worker shape).
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "genesysd:", err)
			os.Exit(1)
		}
	}

	// The persistent run store survives daemon restarts: completed
	// results replay from disk without re-evolving, and interrupted
	// jobs are re-enqueued from their orphaned checkpoints on boot.
	var runStore *store.Store
	if *storeDir != "" {
		runStore, err = store.Open(store.Config{
			Root:             *storeDir,
			MaxBytes:         *storeMaxBytes,
			MaxAge:           *storeMaxAge,
			CheckpointDir:    *ckptDir,
			CheckpointMaxAge: *ckptMaxAge,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "genesysd: store:", err)
			os.Exit(1)
		}
	}

	cfg := serve.Config{
		MaxRunning:        *maxRunning,
		MaxQueue:          *queue,
		MaxPerClient:      *perClient,
		RunnerParallelism: *evalPar,
		CheckpointDir:     *ckptDir,
		CheckpointEvery:   *ckptEvery,
		Store:             runStore,
	}

	// Cluster wiring: a coordinator swaps its executor for the fleet
	// dispatcher.
	advAddr := *advertise
	if advAddr == "" {
		advAddr = "http://" + bound
	}
	var members *cluster.Membership
	if *coordMode {
		// The dispatcher exists before the registry so membership changes
		// (join, death, revival) can trigger its rebalance pass: queued
		// jobs whose consistent-hash owner moved are re-routed to the new
		// owner; running jobs stay put.
		disp := &serve.Dispatcher{}
		members = cluster.NewMembership(cluster.MembershipConfig{
			HeartbeatEvery:   *hbEvery,
			HeartbeatTimeout: *hbTimeout,
			FailAfter:        *failAfter,
			OnChange:         disp.Rebalance,
		})
		disp.Members = members
		cfg.Executor = disp
	}

	sched := serve.NewScheduler(cfg)
	server := serve.NewServer(sched)
	if *coordMode {
		server.EnableCluster(members)
		for _, addr := range strings.Split(*workersList, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				mem := members.Join(addr)
				fmt.Printf("genesysd: seeded worker %s (%s)\n", mem.ID, mem.Addr)
			}
		}
	}
	if *workerMode {
		server.EnableWorker(cluster.NewWorkerAPI())
	}
	srv := &http.Server{Handler: server}

	if runStore != nil {
		rep, requeued := sched.Recover()
		fmt.Printf("genesysd: store %s: %d verified, %d quarantined, %d tmp swept, %d checkpoints swept, %d interrupted (%d re-enqueued)\n",
			*storeDir, rep.Verified, rep.Quarantined, rep.TmpSwept, rep.CheckpointsSwept,
			len(rep.Interrupted), len(requeued))
		if *storeGCEvery > 0 {
			ticker := time.NewTicker(*storeGCEvery)
			defer ticker.Stop()
			go func() {
				for range ticker.C {
					runStore.GC()
				}
			}()
		}
	}

	// SIGTERM (container stop) and SIGINT share one drain path: stop
	// admitting, let running jobs finish or checkpoint, then exit.
	ctx, stop := signalctx.Notify(context.Background())
	defer stop()

	if *coordMode {
		go members.Run(ctx)
	}
	if *workerMode {
		// Register with the coordinator, retrying until it is reachable,
		// then re-join periodically — joins are idempotent, and the
		// periodic one re-registers this worker after a coordinator
		// restart wipes the membership registry.
		go func() {
			co := &serve.Client{Base: *joinURL, Retry: serve.RetryPolicy{MaxAttempts: 5}}
			for {
				if mem, err := co.ClusterJoin(ctx, advAddr); err == nil {
					fmt.Printf("genesysd: joined %s as %s (%s)\n", *joinURL, mem.ID, mem.Addr)
				} else if ctx.Err() != nil {
					return
				} else {
					fmt.Fprintln(os.Stderr, "genesysd:", err)
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(15 * time.Second):
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	mode := "standalone"
	if *coordMode {
		mode = "coordinator"
	} else if *workerMode {
		mode = "worker " + cluster.MemberID(advAddr)
	}
	fmt.Printf("genesysd: listening on %s (%s, workers %d, queue %d)\n", bound, mode, *maxRunning, *queue)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "genesysd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "genesysd: draining (grace %s)\n", *drainGrace)
	sched.Drain(*drainGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
	}
	fmt.Fprintln(os.Stderr, "genesysd: drained, exiting")
}
