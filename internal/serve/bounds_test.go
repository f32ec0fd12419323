package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/store"
)

// Seeds 9400s: memory bounds. See the seed-range note in
// server_test.go.
const seedBounds = 9400

// heapAfterGC is the live heap once a collection has run.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFinishedJobsBounded runs 2,000 cache-hit jobs through one
// scheduler. It keeps only the maxFinished last to finish, so the heap
// stops growing with jobs once the bound is reached; the parent kept
// every job, 2,391 bytes each. A dropped job's id answers 404 on both
// job routes, and Watch returns that at once as ErrUnknownJob.
func TestFinishedJobsBounded(t *testing.T) {
	sched, c, _ := startDaemon(t, Config{MaxRunning: 1})
	spec := Spec{Workload: "cartpole", Population: 24, Generations: 2, Seed: seedBounds}
	const jobs = 2000
	var first string
	var heap int64
	for i := 1; i <= jobs; i++ {
		j, err := sched.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if j.State() != StateDone {
			t.Fatalf("job %d: %s", i, j.Status().Error)
		}
		if i == 1 {
			first = j.ID
		}
		if n := len(sched.Jobs()); n > maxFinished {
			t.Fatalf("after %d jobs the scheduler holds %d, bound %d", i, n, maxFinished)
		}
		if i == maxFinished+100 {
			heap = heapAfterGC()
		}
	}
	perJob := float64(heapAfterGC()-heap) / float64(jobs-maxFinished-100)
	t.Logf("heap growth past the bound: %.1f B/job", perJob)
	if perJob > 200 {
		t.Fatalf("heap grew %.0f B per job past the bound", perJob)
	}
	if _, ok := sched.Job(first); ok {
		t.Fatalf("%s is still held after %d later jobs", first, jobs-1)
	}

	for _, path := range []string{"/jobs/" + first, "/jobs/" + first + "/events"} {
		resp, err := http.Get(c.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d %s, want 404", path, resp.StatusCode, body)
		}
	}
	var slept []time.Duration
	wc := &Client{Base: c.Base, Retry: instantRetry(5, &slept)}
	if _, err := wc.Watch(context.Background(), first, nil); !errors.Is(err, ErrUnknownJob) || len(slept) > 0 {
		t.Fatalf("Watch of a dropped job: %v after %d retries, want ErrUnknownJob and none", err, len(slept))
	}
}

// TestCacheGauges drives a store-backed scheduler past the run cache's
// byte budget with RAM-game jobs of about 2.2 MB each. /metrics then
// shows runs evicted, the rest held, and every committed run counted
// once: held or evicted.
func TestCacheGauges(t *testing.T) {
	resetPersistence(t)
	experiments.ResetCaches()
	st, err := store.Open(store.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	sched, c, _ := startDaemon(t, Config{MaxRunning: 1, Store: st})
	const jobs = 5
	for i := 0; i < jobs; i++ {
		sub, err := c.Submit(context.Background(), Spec{Workload: "alien-ram", Population: 50, Generations: 1, Seed: seedBounds + 10 + uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := c.Watch(context.Background(), sub.ID, nil); err != nil || final.State != StateDone {
			t.Fatalf("job %d: %v %+v", i, err, final)
		}
	}
	cache, ok := findChild(sched.Counters().Snapshot(), "cache")
	if !ok {
		t.Fatal("no cache node in /metrics")
	}
	runs, bytes, evicted := cache.Ints["held_runs"], cache.Ints["held_bytes"], cache.Ints["evicted"]
	committed := st.Counters().Snapshot().Int("ops/bytes_written")
	t.Logf("held %d runs in %d bytes, %d evicted, %d committed", runs, bytes, evicted, committed)
	if evicted < 1 || runs < 1 || runs+evicted != jobs {
		t.Fatalf("held_runs %d + evicted %d, want %d with each at least 1", runs, evicted, jobs)
	}
	if bytes <= 0 || bytes >= committed {
		t.Fatalf("held_bytes %d, want some of the %d committed", bytes, committed)
	}
}

// TestDispatchRetriesDroppedRemoteJob: when a worker has dropped the
// job a coordinator is watching (it finished and maxFinished later jobs
// pushed it out), the coordinator resubmits it to the same worker
// without marking that worker dead, and the job completes.
func TestDispatchRetriesDroppedRemoteJob(t *testing.T) {
	var submits atomic.Int32
	done, err := json.Marshal(Status{ID: "w-1", State: StateDone, Generations: 1})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		writeJSON(w, http.StatusAccepted, Status{ID: "w-1", State: StateQueued})
	})
	mux.HandleFunc("GET /jobs/w-1/events", func(w http.ResponseWriter, r *http.Request) {
		if submits.Load() == 1 {
			writeJSON(w, http.StatusNotFound, errorBody{Error: unknownJob})
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		sseRecord(t, w, 0)
		fmt.Fprintf(w, "event: done\ndata: %s\n\n", done)
	})
	worker := httptest.NewServer(mux)
	defer worker.Close()

	members := cluster.NewMembership(cluster.MembershipConfig{})
	members.Join(worker.URL)
	sched := NewScheduler(Config{MaxRunning: 1, Executor: &Dispatcher{Members: members}})
	defer sched.Drain(time.Second)
	j, err := sched.Submit(Spec{Workload: "cartpole", Population: 8, Generations: 1, Seed: seedBounds + 20})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st.State != StateDone || st.Generations != 1 {
		t.Fatalf("job %+v, want done with 1 generation", st)
	}
	if n := submits.Load(); n != 2 || len(members.Live()) != 1 {
		t.Fatalf("%d submits, %d live workers; want 2 and the worker alive", n, len(members.Live()))
	}
	if n := sched.Counters().Snapshot().Int("cluster/redispatched"); n != 0 {
		t.Fatalf("redispatched %d, want 0", n)
	}
}
