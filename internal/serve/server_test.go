package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// Seed ranges per test, so the process-global run cache never aliases
// one test's evolutions into another's execution counts:
//
//	smoke 9000s · admission 9100s · dedup 9200s · cancel/resume 9300s ·
//	integration 9500s · bench 1<<40 and up
const (
	seedSmoke       = 9000
	seedAdmission   = 9100
	seedDedup       = 9200
	seedResume      = 9300
	seedIntegration = 9500
)

// Tests that need a job to still be in flight when the next request
// lands use alien-ram: ~65ms per generation at population 30 and no
// reachable solve target, so a large generation budget pins a worker
// for as long as the test wants (the control workloads solve within a
// few cheap generations and finish in single-digit milliseconds).
func slowSpec(seed uint64, gens int) Spec {
	return Spec{Workload: "alien-ram", Population: 30, Generations: gens, Seed: seed}
}

// startDaemon runs a real genesysd stack — scheduler, HTTP server, TCP
// loopback listener — and returns a client pointed at it.
func startDaemon(t testing.TB, cfg Config) (*Scheduler, *Client, *http.Server) {
	t.Helper()
	sched := NewScheduler(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewServer(sched)}
	go srv.Serve(ln)
	c := &Client{Base: "http://" + ln.Addr().String(), Name: "test"}
	t.Cleanup(func() {
		sched.Drain(5 * time.Second)
		srv.Close()
	})
	return sched, c, srv
}

// waitState polls until the job reaches the predicate or the deadline.
func waitStatus(t *testing.T, c *Client, id string, deadline time.Duration, ok func(Status) bool) Status {
	t.Helper()
	ctx := context.Background()
	for start := time.Now(); time.Since(start) < deadline; {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if ok(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach the wanted status within %s", id, deadline)
	return Status{}
}

// TestServerSmoke is the check.sh smoke scenario: one tiny CartPole
// job end to end — SSE records arrive, the terminal status is done,
// and /metrics parses as a valid counter tree.
func TestServerSmoke(t *testing.T) {
	_, c, _ := startDaemon(t, Config{MaxRunning: 2, MaxQueue: 8})
	ctx := context.Background()

	st, err := c.Submit(ctx, Spec{Workload: "cartpole", Population: 24, Generations: 3, Seed: seedSmoke})
	if err != nil {
		t.Fatal(err)
	}
	var recs int
	final, err := c.Watch(ctx, st.ID, func(r hwsim.Record) error {
		if r.Workload != "cartpole" {
			t.Errorf("record workload %q", r.Workload)
		}
		recs++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("final state %s (err %q), want done", final.State, final.Error)
	}
	if recs < 1 || recs != final.Generations {
		t.Fatalf("streamed %d records, status says %d generations", recs, final.Generations)
	}

	rep, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if rep.Name != "genesysd" {
		t.Fatalf("metrics root %q", rep.Name)
	}
	if got := rep.Int("jobs/admitted"); got < 1 {
		t.Fatalf("jobs/admitted = %d", got)
	}
	if got := rep.Int("jobs/completed"); got < 1 {
		t.Fatalf("jobs/completed = %d", got)
	}
	if got := rep.Int("stream/records_streamed"); got < int64(recs) {
		t.Fatalf("stream/records_streamed = %d, want >= %d", got, recs)
	}
}

// TestResubmitOnDone: a client capped at one job in flight that
// submits its next job the moment it sees done is never shed, and
// /metrics already counts every job it has seen finish — a job's slot
// and outcome counter settle before its stream ends.
func TestResubmitOnDone(t *testing.T) {
	_, c, _ := startDaemon(t, Config{MaxRunning: 2, MaxQueue: 8, MaxPerClient: 1})
	ctx := context.Background()
	for done := 1; done <= 20; done++ {
		st, err := c.Submit(ctx, Spec{Workload: "cartpole", Population: 16, Generations: 1, Seed: seedSmoke + uint64(done)})
		if err != nil {
			t.Fatalf("submit after %d done events: %v", done-1, err)
		}
		final, err := c.Watch(ctx, st.ID, func(hwsim.Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("job %d ended %s (%q)", done, final.State, final.Error)
		}
		rep, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Int("jobs/completed"); got < int64(done) {
			t.Fatalf("jobs/completed = %d after %d done events", got, done)
		}
	}
}

// TestAdmissionPerClientCap: one client over its in-flight cap is
// shed with a Retry-After hint while another client is admitted — the
// per-client fairness half of the load-shedding policy.
func TestAdmissionPerClientCap(t *testing.T) {
	_, c, _ := startDaemon(t, Config{MaxRunning: 1, MaxQueue: 4, MaxPerClient: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, slowSpec(seedAdmission, 1000))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, slowSpec(seedAdmission+1, 1000))
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("second submit from the same client: err %v, want ShedError", err)
	}
	if shed.RetryAfter < 1 {
		t.Fatalf("shed without a Retry-After hint: %+v", shed)
	}

	other := &Client{Base: c.Base, Name: "other-client"}
	st2, err := other.Submit(ctx, slowSpec(seedAdmission+2, 1000))
	if err != nil {
		t.Fatalf("other client shed too: %v", err)
	}

	for _, id := range []string{st.ID, st2.ID} {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDedupSharedEvolution: identical (workload, pop, gens, seed)
// submissions execute one evolution — the second job is served from
// the run cache, streams the same records, and the execution counter
// moves by exactly one.
func TestDedupSharedEvolution(t *testing.T) {
	_, c, _ := startDaemon(t, Config{MaxRunning: 2, MaxQueue: 8})
	ctx := context.Background()
	spec := Spec{Workload: "cartpole", Population: 20, Generations: 3, Seed: seedDedup}

	before := experiments.EvolutionsExecuted()
	st1, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final1, err := c.Watch(ctx, st1.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var recs2 int
	final2, err := c.Watch(ctx, st2.ID, func(hwsim.Record) error { recs2++; return nil })
	if err != nil {
		t.Fatal(err)
	}

	if d := experiments.EvolutionsExecuted() - before; d != 1 {
		t.Fatalf("2 identical jobs executed %d evolutions, want 1", d)
	}
	if final1.State != StateDone || final2.State != StateDone {
		t.Fatalf("states %s / %s, want done / done", final1.State, final2.State)
	}
	if final1.Shared {
		t.Fatal("first submission marked shared; it should have computed")
	}
	if !final2.Shared {
		t.Fatal("second identical submission not served from the run cache")
	}
	if recs2 != final1.Generations {
		t.Fatalf("replayed %d records, original streamed %d", recs2, final1.Generations)
	}
}

// TestCancelCheckpointResume: DELETE mid-run cancels the job and
// leaves a checkpoint; resubmitting the same spec resumes from it
// instead of starting over.
func TestCancelCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	_, c, _ := startDaemon(t, Config{
		MaxRunning: 1, MaxQueue: 4,
		CheckpointDir: dir, CheckpointEvery: 1,
	})
	ctx := context.Background()
	// 8 generations is ~0.5s of compute: long enough that the cancel
	// lands mid-run (we poll for generation 2 first), short enough that
	// the resumed job finishes the remainder quickly.
	spec := slowSpec(seedResume, 8)

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let it stream a couple of generations, poke the on-demand
	// checkpoint endpoint, then cancel via the API.
	waitStatus(t, c, st.ID, 30*time.Second, func(s Status) bool { return s.Generations >= 2 })
	if _, err := c.Checkpoint(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitStatus(t, c, st.ID, 30*time.Second, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateCancelled {
		t.Fatalf("cancelled job reports %s (err %q)", final.State, final.Error)
	}

	ckpt := filepath.Join(dir, spec.withDefaults().key().String()+".ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after cancel: %v", err)
	}

	st2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final2, err := c.Watch(ctx, st2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != StateDone {
		t.Fatalf("resumed job reports %s (err %q)", final2.State, final2.Error)
	}
	if !final2.Resumed {
		t.Fatal("resubmitted job did not resume from the checkpoint")
	}
	if _, err := os.Stat(ckpt); err == nil {
		t.Fatal("checkpoint not cleaned up after successful completion")
	}
}

// TestServeIntegration is the acceptance scenario: a real genesysd on
// a loopback listener under a deliberately tiny queue — a concurrent
// burst sheds with 429, admitted jobs stream SSE records, one job is
// cancelled mid-run via the API, identical submissions share one
// evolution, and the daemon drains cleanly. scripts/check.sh runs
// this under the race detector.
func TestServeIntegration(t *testing.T) {
	dir := t.TempDir()
	sched, c, srv := startDaemon(t, Config{
		MaxRunning: 2, MaxQueue: 2,
		CheckpointDir: dir, CheckpointEvery: 5,
	})
	ctx := context.Background()

	// Burst: 10 concurrent watched jobs against capacity 2+2. The
	// submissions land within milliseconds while each job runs for
	// ~130ms, so the overflow must shed.
	rep, err := c.Load(ctx, LoadSpec{
		Template:      slowSpec(seedIntegration, 2),
		Jobs:          10,
		DistinctSeeds: true,
		Watch:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed < 1 {
		t.Fatalf("no 429 under a 2+2 capacity with a 10-job burst: %+v", rep)
	}
	if rep.Admitted < 2 {
		t.Fatalf("burst admitted %d jobs, want >= 2: %+v", rep.Admitted, rep)
	}
	if rep.Completed != rep.Admitted || rep.Failed != 0 {
		t.Fatalf("admitted jobs did not all complete: %+v", rep)
	}
	if rep.Records < rep.Completed {
		t.Fatalf("only %d SSE records across %d completed jobs: %+v", rep.Records, rep.Completed, rep)
	}

	// Cancel mid-run via the API, observing the stream end.
	long, err := c.Submit(ctx, slowSpec(seedIntegration+50, 1000))
	if err != nil {
		t.Fatal(err)
	}
	watched := make(chan Status, 1)
	go func() {
		final, werr := c.Watch(ctx, long.ID, nil)
		if werr != nil {
			t.Error(werr)
		}
		watched <- final
	}()
	waitStatus(t, c, long.ID, 30*time.Second, func(s Status) bool { return s.Generations >= 1 })
	if _, err := c.Cancel(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case final := <-watched:
		if final.State != StateCancelled {
			t.Fatalf("mid-run cancel produced state %s", final.State)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE watch did not end after cancel")
	}

	// Identical submissions share one evolution via the run cache.
	pair := Spec{Workload: "cartpole", Population: 20, Generations: 3, Seed: seedIntegration + 60}
	before := experiments.EvolutionsExecuted()
	a, err := c.Submit(ctx, pair)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Watch(ctx, a.ID, nil); err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, pair)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := c.Watch(ctx, b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := experiments.EvolutionsExecuted() - before; d != 1 {
		t.Fatalf("identical pair executed %d evolutions, want 1", d)
	}
	if !fb.Shared {
		t.Fatal("identical resubmission did not share the cached evolution")
	}

	// Drain with a job still running: it is cancelled at a generation
	// boundary (checkpointing), and new submissions are refused 503.
	drainee, err := c.Submit(ctx, slowSpec(seedIntegration+70, 1000))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, drainee.ID, 30*time.Second, func(s Status) bool { return s.State == StateRunning })
	sched.Drain(10 * time.Millisecond)

	st, err := c.Job(ctx, drainee.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("drained job in state %s, want cancelled", st.State)
	}
	if _, err := c.Submit(ctx, Spec{Workload: "cartpole", Seed: seedIntegration + 80}); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("submit while draining: err %v, want 503 draining", err)
	}
	shutdownCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown after drain: %v", err)
	}
}

// TestSpecKeyStringIsStable pins that a spec's store key renders the
// same string the spec key always had, for the spec shapes the serve
// tests submit, so checkpoint file names, store directories and ring
// placement carry over from earlier daemons. legacy is that format.
func TestSpecKeyStringIsStable(t *testing.T) {
	legacy := func(sp Spec) string {
		base := fmt.Sprintf("%s-p%d-g%d-s%d", sp.Workload, sp.Population, sp.Generations, sp.Seed)
		if sp.Islands > 0 {
			base += fmt.Sprintf("-i%d-m%d", sp.Islands, sp.MigrationEvery)
		}
		if sp.Objectives != "" {
			base += "-o" + sp.Objectives
		}
		return base
	}
	for _, sp := range []Spec{
		{Workload: "cartpole"},
		{Workload: "cartpole", Population: 16, Generations: 2, Seed: seedCluster + 3},
		slowSpec(seedRecovery, 1000),
		{Workload: "cartpole", Population: 32, Generations: 8, Seed: seedCluster + 2, Islands: 2, MigrationEvery: 3},
		{Workload: "cartpole", Population: 32, Generations: 8, Islands: 4},
		paretoSpec(seedPareto + 1),
		{Workload: "cartpole", Population: 16, Generations: 2, MigrationEvery: 3},
		{Workload: "cartpole", Population: 16, Generations: 2, Islands: -1, MigrationEvery: 2},
	} {
		sp = sp.withDefaults()
		if got, want := sp.key().String(), legacy(sp); got != want {
			t.Errorf("%+v: key %q, want %q", sp, got, want)
		}
		if err := sp.validate(); err == nil {
			if k, ok := store.ParseKeyFilename(sp.key().String() + ".ckpt"); !ok || k != sp.key() {
				t.Errorf("%+v: checkpoint name does not parse back to its key (%+v, %v)", sp, k, ok)
			}
		}
	}
}

// TestSubmitPopulationBounded: a POST /jobs whose population is past
// neat.MaxPopulationSize is refused with 400 at admission, for every
// run kind, and the daemon keeps serving. A population of 1<<62 once
// passed admission, and allocating it panicked a scheduler worker,
// which took the daemon down.
func TestSubmitPopulationBounded(t *testing.T) {
	_, c, _ := startDaemon(t, Config{MaxRunning: 1})
	for _, body := range []string{
		`{"workload":"cartpole","population":4611686018427387904}`,
		`{"workload":"cartpole","population":4611686018427387904,"islands":2}`,
		`{"workload":"cartpole","population":4611686018427387904,"objectives":"fitness+genes"}`,
	} {
		resp, err := http.Post(c.Base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /jobs %s: status %d, want 400 (%s)", body, resp.StatusCode, msg)
		}
	}
	resp, err := http.Get(c.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz after the refusals: status %d", resp.StatusCode)
	}
}

// execFunc adapts a function to the Executor interface.
type execFunc func(ctx context.Context, j *Job, sink hwsim.Sink) (Outcome, error)

func (f execFunc) Execute(ctx context.Context, j *Job, sink hwsim.Sink) (Outcome, error) {
	return f(ctx, j, sink)
}

// TestLiveProgressCountsGenerationsOnly: while a Pareto job runs, GET
// /jobs/{id} counts only its generation records. The two "#front"
// points that follow the history carry no max_fitness; were they
// counted, the job would read 5 generations and a best fitness of 0.
func TestLiveProgressCountsGenerationsOnly(t *testing.T) {
	spec := paretoSpec(seedPareto + 90)
	recorded := make(chan struct{})
	sched := NewScheduler(Config{MaxRunning: 1, Executor: execFunc(func(ctx context.Context, j *Job, sink hwsim.Sink) (Outcome, error) {
		for g, mf := range []float64{-50, -40, -45} {
			sink.Record(hwsim.Record{Workload: spec.Workload, Generation: g,
				Report: hwsim.Report{Name: "gen", Floats: map[string]float64{"max_fitness": mf}}})
		}
		for i := 0; i < 2; i++ {
			sink.Record(hwsim.Record{Workload: spec.Workload + "#front", Generation: 3 + i,
				Report: hwsim.Report{Name: "front", Floats: map[string]float64{"fitness": -40, "crowding": 1}}})
		}
		close(recorded)
		<-ctx.Done()
		return Outcome{}, ctx.Err()
	})})
	defer sched.Drain(0)
	j, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-recorded:
	case <-time.After(10 * time.Second):
		t.Fatal("the executor never ran")
	}

	rr := httptest.NewRecorder()
	NewServer(sched).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/jobs/"+j.ID, nil))
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("GET /jobs/%s: %v (%s)", j.ID, err, rr.Body)
	}
	if st.State != StateRunning || st.Generations != 3 || st.BestFitness != -40 {
		t.Fatalf("running Pareto job reads state %s, %d generations, best %v; want running, 3, -40",
			st.State, st.Generations, st.BestFitness)
	}
}

// countingReader counts the bytes a handler pulls from a request body.
type countingReader struct {
	r    io.Reader
	read int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	return n, err
}

// workloadBody is {"workload":"aaa…"} with n a's.
func workloadBody(n int) *countingReader {
	return &countingReader{r: io.MultiReader(strings.NewReader(`{"workload":"`),
		strings.NewReader(strings.Repeat("a", n)), strings.NewReader(`"}`))}
}

// TestRequestBodiesBounded sends POST /jobs and POST /cluster/join a
// 4 MiB {"workload":"aaa…"} body. Both must be refused with 400 or 413
// after reading at most maxBody bytes plus one read buffer. A body of
// half the limit is read whole and refused for its content instead.
func TestRequestBodiesBounded(t *testing.T) {
	sched := NewScheduler(Config{MaxRunning: 1})
	defer sched.Drain(0)
	server := NewServer(sched)
	server.EnableCluster(cluster.NewMembership(cluster.MembershipConfig{}))
	const readBuffer = 64 << 10
	for _, path := range []string{"/jobs", "/cluster/join"} {
		body := workloadBody(4 << 20)
		rr := httptest.NewRecorder()
		server.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, body))
		if rr.Code != http.StatusBadRequest && rr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a 4 MiB body: status %d, want 400 or 413 (%s)", path, rr.Code, rr.Body)
		}
		if body.read > maxBody+readBuffer {
			t.Fatalf("POST %s read %d bytes of a 4 MiB body; the limit is %d", path, body.read, maxBody)
		}

		body = workloadBody(maxBody / 2)
		rr = httptest.NewRecorder()
		server.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, body))
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("POST %s with a %d-byte body: status %d, want 400 (%s)", path, body.read, rr.Code, rr.Body)
		}
		if want := maxBody/2 + len(`{"workload":""}`); body.read != want {
			t.Fatalf("POST %s read %d bytes of a %d-byte body under the limit", path, body.read, want)
		}
	}
}
