package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/evolve"
	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// Seeds 9800s: cluster mode. See the seed-range note in server_test.go.
const seedCluster = 9800

// fleetWorker is one in-process worker daemon: its own scheduler, its
// own listener, the island session protocol mounted — everything a
// separate worker process would run, killable mid-job.
type fleetWorker struct {
	sched *Scheduler
	srv   *http.Server
	addr  string // http:// base URL
	id    string
}

func startFleetWorker(t *testing.T, ckptDir string) *fleetWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	w := &fleetWorker{addr: addr, id: cluster.MemberID(addr)}
	w.sched = NewScheduler(Config{
		MaxRunning:      2,
		CheckpointDir:   ckptDir,
		CheckpointEvery: 1,
	})
	server := NewServer(w.sched)
	server.EnableWorker(cluster.NewWorkerAPI())
	w.srv = &http.Server{Handler: server}
	go w.srv.Serve(ln)
	t.Cleanup(func() {
		w.sched.Drain(2 * time.Second)
		w.srv.Close()
	})
	return w
}

// kill simulates the worker process dying: the scheduler cancels its
// running jobs (which checkpoint at a generation boundary, like a
// drain would) and the HTTP surface goes away, so the coordinator's
// stream drops and its health checks fail.
func (w *fleetWorker) kill(t *testing.T) {
	t.Helper()
	done := make(chan struct{})
	go func() { w.sched.Drain(0); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("worker drain wedged")
	}
	w.srv.Close()
}

// startCoordinator runs a coordinator daemon whose executor is the
// fleet dispatcher over the given workers.
func startCoordinator(t *testing.T, workers ...*fleetWorker) (*Membership, *Dispatcher, *Client, *http.Server, net.Listener) {
	t.Helper()
	members := cluster.NewMembership(cluster.MembershipConfig{})
	for _, w := range workers {
		members.Join(w.addr)
	}
	disp := &Dispatcher{Members: members}
	sched := NewScheduler(Config{MaxRunning: 2, Executor: disp})
	server := NewServer(sched)
	server.EnableCluster(members)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: server}
	go srv.Serve(ln)
	c := &Client{Base: "http://" + ln.Addr().String(), Name: "test"}
	t.Cleanup(func() {
		sched.Drain(2 * time.Second)
		srv.Close()
	})
	return members, disp, c, srv, ln
}

// Membership aliases the cluster type for the test helper signature.
type Membership = cluster.Membership

// clusterMembership builds a registry with every worker joined — the
// benchmark's non-health-checked fleet.
func clusterMembership(workers []*fleetWorker) *cluster.Membership {
	members := cluster.NewMembership(cluster.MembershipConfig{})
	for _, w := range workers {
		members.Join(w.addr)
	}
	return members
}

// TestClusterFailoverResumes is the fleet acceptance test: a job
// dispatched to a 2-worker fleet survives its worker dying mid-run —
// the coordinator re-dispatches to the survivor, which resumes from
// the dead worker's orphaned checkpoint, and the client's stream stays
// exactly-once throughout.
func TestClusterFailoverResumes(t *testing.T) {
	ckptDir := t.TempDir()
	w1 := startFleetWorker(t, ckptDir)
	w2 := startFleetWorker(t, ckptDir)
	_, disp, c, _, _ := startCoordinator(t, w1, w2)
	ctx := context.Background()

	spec := slowSpec(seedCluster+1, 40)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Follow the coordinator's stream, recording every generation.
	var mu sync.Mutex
	var gens []int
	watchDone := make(chan Status, 1)
	go func() {
		final, werr := (&Client{Base: c.Base, Name: "watcher", Retry: RetryPolicy{MaxAttempts: 8}}).
			Watch(ctx, st.ID, func(r hwsim.Record) error {
				mu.Lock()
				gens = append(gens, r.Generation)
				mu.Unlock()
				return nil
			})
		if werr != nil {
			t.Error(werr)
		}
		watchDone <- final
	}()

	// Find the worker the ring dispatched to.
	var victim, survivor *fleetWorker
	deadline := time.Now().Add(20 * time.Second)
	for victim == nil {
		if time.Now().After(deadline) {
			t.Fatal("no worker picked the job up")
		}
		for _, w := range []*fleetWorker{w1, w2} {
			for _, j := range w.sched.Jobs() {
				if j.State() == StateRunning {
					victim = w
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if victim == w1 {
		survivor = w2
	} else {
		survivor = w1
	}

	// Wait for the victim's first checkpoint, the key's one file
	// "<key>.ckpt" (saves commit by rename, so it is always whole; a
	// ".ckpt.tmp*" staging file beside it is no checkpoint), then kill
	// the victim.
	key := spec.withDefaults().key()
	waitFor(t, 20*time.Second, "victim checkpoint", func() bool {
		_, err := os.Stat(store.CheckpointPath(ckptDir, key))
		return err == nil
	})
	victim.kill(t)

	select {
	case final := <-watchDone:
		if final.State != StateDone {
			t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
		}
		if !final.Resumed {
			t.Fatal("failover completion did not resume from the orphaned checkpoint")
		}
	case <-time.After(120 * time.Second):
		t.Fatal("job did not finish after failover")
	}

	// Exactly-once: generations strictly increase across the failover
	// (the survivor's history replay was deduplicated).
	mu.Lock()
	defer mu.Unlock()
	if len(gens) == 0 {
		t.Fatal("no records streamed")
	}
	for i := 1; i < len(gens); i++ {
		if gens[i] <= gens[i-1] {
			t.Fatalf("stream not exactly-once: gen %d after %d (all: %v)", gens[i], gens[i-1], gens)
		}
	}

	if got := disp.Counters().Snapshot().Int("redispatched"); got < 1 {
		t.Fatalf("redispatched = %d, want >= 1", got)
	}
	// The survivor ran the job to completion.
	found := false
	for _, j := range survivor.sched.Jobs() {
		if j.State() == StateDone {
			found = true
		}
	}
	if !found {
		t.Fatal("survivor has no completed job")
	}
	// Completion reclaimed the checkpoint the survivor resumed from and
	// then wrote, and no save left a staging file behind.
	ents, _ := os.ReadDir(ckptDir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), key.String()) {
			t.Fatalf("checkpoint %s not reclaimed after completion", e.Name())
		}
	}
}

// TestClusterIslandDifferential pins the tentpole determinism claim:
// an island job computed by a 2-worker fleet is byte-identical to the
// single-process reference of the same tuple.
func TestClusterIslandDifferential(t *testing.T) {
	experiments.ResetCaches()
	t.Cleanup(experiments.ResetCaches)

	spec := Spec{
		Workload: "cartpole", Population: 32, Generations: 8,
		Seed: seedCluster + 2, Islands: 2, MigrationEvery: 3,
	}
	ref, err := evolve.RunIslands(context.Background(), evolve.IslandSpec{
		Workload: spec.Workload, Population: spec.Population, Generations: spec.Generations,
		Islands: spec.Islands, MigrationEvery: spec.MigrationEvery, Seed: spec.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	w1 := startFleetWorker(t, t.TempDir())
	w2 := startFleetWorker(t, t.TempDir())
	_, disp, c, _, _ := startCoordinator(t, w1, w2)
	ctx := context.Background()

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitStatus(t, c, st.ID, 120*time.Second, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("island job finished %s: %s", final.State, final.Error)
	}
	if got := disp.Counters().Snapshot().Int("island_distributed"); got != 1 {
		t.Fatalf("island_distributed = %d, want 1 (the fleet executed it)", got)
	}

	cached, err := experiments.RunSharedIsland(experiments.IslandRequest{
		Workload: spec.Workload, Population: spec.Population, Generations: spec.Generations,
		Islands: spec.Islands, MigrationEvery: spec.MigrationEvery, Seed: spec.Seed,
		Run: func(context.Context) (*evolve.IslandRun, error) { return nil, errors.New("not cached") },
	})
	if err != nil || cached.Computed {
		t.Fatal("island run not in the coordinator's cache")
	}
	jref, _ := json.Marshal(ref)
	jgot, _ := json.Marshal(cached.Run)
	if string(jref) != string(jgot) {
		t.Fatal("fleet island run is not byte-identical to the single-process reference")
	}
	if final.Generations == 0 || !strings.Contains(final.Spec.Workload, "cartpole") {
		t.Fatalf("suspicious final status: %+v", final)
	}
}

// TestClusterStoreHitProxy: a key the coordinator already holds is
// answered locally — replayed to the client with no fleet dispatch.
func TestClusterStoreHitProxy(t *testing.T) {
	w1 := startFleetWorker(t, t.TempDir())
	_, disp, c, _, _ := startCoordinator(t, w1)
	ctx := context.Background()

	spec := Spec{Workload: "cartpole", Population: 16, Generations: 2, Seed: seedCluster + 3}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	first := waitStatus(t, c, st.ID, 60*time.Second, func(s Status) bool { return s.State.Terminal() })
	if first.State != StateDone {
		t.Fatalf("first job: %s (%s)", first.State, first.Error)
	}
	if got := disp.Counters().Snapshot().Int("dispatched"); got != 1 {
		t.Fatalf("dispatched = %d, want 1", got)
	}

	// Same tuple again: the worker computed it in this process, so the
	// coordinator's run-cache peek answers without dispatching.
	st2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	second := waitStatus(t, c, st2.ID, 60*time.Second, func(s Status) bool { return s.State.Terminal() })
	if second.State != StateDone || !second.Shared {
		t.Fatalf("second job: state=%s shared=%v", second.State, second.Shared)
	}
	snap := disp.Counters().Snapshot()
	if got := snap.Int("dispatched"); got != 1 {
		t.Fatalf("dispatched = %d after proxy hit, want still 1", got)
	}
	if got := snap.Int("proxied_store_hits"); got < 1 {
		t.Fatalf("proxied_store_hits = %d, want >= 1", got)
	}
	if second.Generations != first.Generations {
		t.Fatalf("proxied replay streamed %d generations, original %d", second.Generations, first.Generations)
	}
}

// TestWatchReconnectAcrossCoordinatorRestart: a client watch survives
// the coordinator's HTTP frontend dying mid-stream — it reconnects to
// the restarted listener and still sees every generation exactly once.
func TestWatchReconnectAcrossCoordinatorRestart(t *testing.T) {
	w1 := startFleetWorker(t, t.TempDir())
	_, _, c, srv, ln := startCoordinator(t, w1)
	ctx := context.Background()

	spec := slowSpec(seedCluster+4, 25)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var gens []int
	watcher := &Client{Base: c.Base, Name: "watcher", Retry: RetryPolicy{MaxAttempts: 10, BaseDelay: 20 * time.Millisecond}}
	watchDone := make(chan Status, 1)
	watchErr := make(chan error, 1)
	go func() {
		final, werr := watcher.Watch(ctx, st.ID, func(r hwsim.Record) error {
			mu.Lock()
			gens = append(gens, r.Generation)
			mu.Unlock()
			return nil
		})
		if werr != nil {
			watchErr <- werr
			return
		}
		watchDone <- final
	}()

	// Let some records flow, then kill the coordinator's HTTP frontend
	// (scheduler and dispatcher keep running — this is a frontend
	// failover, the server-side half of the reconnect contract).
	waitFor(t, 30*time.Second, "records before restart", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(gens) >= 3
	})
	addr := ln.Addr().String()
	srv.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := &http.Server{Handler: srv.Handler}
	go srv2.Serve(ln2)
	t.Cleanup(func() { srv2.Close() })

	select {
	case final := <-watchDone:
		if final.State != StateDone {
			t.Fatalf("job finished %s (%s)", final.State, final.Error)
		}
		mu.Lock()
		defer mu.Unlock()
		for i := 1; i < len(gens); i++ {
			if gens[i] <= gens[i-1] {
				t.Fatalf("duplicate or reordered record after reconnect: gen %d after %d", gens[i], gens[i-1])
			}
		}
		if len(gens) != final.Generations {
			t.Fatalf("streamed %d records, job ran %d generations", len(gens), final.Generations)
		}
	case werr := <-watchErr:
		t.Fatalf("watch failed: %v", werr)
	case <-time.After(120 * time.Second):
		t.Fatal("watch did not finish after coordinator restart")
	}
}

// TestClusterRouteSurface smoke-tests the /cluster admin routes.
func TestClusterRouteSurface(t *testing.T) {
	w1 := startFleetWorker(t, t.TempDir())
	members, _, c, _, _ := startCoordinator(t, w1)
	ctx := context.Background()

	st, err := c.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 1 || !st.Members[0].Alive || st.RingPoints != cluster.DefaultVnodes {
		t.Fatalf("cluster status: %+v", st)
	}
	mem, err := c.ClusterJoin(ctx, "http://127.0.0.1:59999")
	if err != nil {
		t.Fatal(err)
	}
	if mem.ID != cluster.MemberID("http://127.0.0.1:59999") {
		t.Fatalf("join returned id %s", mem.ID)
	}
	if live := members.Live(); len(live) != 2 {
		t.Fatalf("live = %v after join", live)
	}
}

// waitFor polls cond until true or the deadline fails the test.
func waitFor(t *testing.T, deadline time.Duration, what string, cond func() bool) {
	t.Helper()
	for start := time.Now(); time.Since(start) < deadline; {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
