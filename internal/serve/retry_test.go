package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hw/hwsim"
)

// Seeds 9700s: client retry/ETag. See the seed-range note in
// server_test.go.
const seedRetry = 9700

// instantRetry is a retry policy whose sleeps are recorded instead of
// slept and whose jitter draw is pinned to the midpoint (factor 1.0),
// so tests assert exact delays without wall-clock time.
func instantRetry(attempts int, slept *[]time.Duration) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   10 * time.Millisecond,
		rand:        func() float64 { return 0.5 },
		sleep: func(_ context.Context, d time.Duration) error {
			*slept = append(*slept, d)
			return nil
		},
	}
}

// TestRetryDelayJitterBounds pins the jitter envelope: for every
// attempt and any jitter draw, the delay stays within ±20% of the
// capped exponential schedule — never shorter than the low bound
// (which would stampede a recovering server) and never longer than
// the high bound (which would stall failover).
func TestRetryDelayJitterBounds(t *testing.T) {
	const base, cap = 100 * time.Millisecond, 800 * time.Millisecond
	for _, draw := range []float64{0, 0.25, 0.5, 0.75, 1} {
		pol := RetryPolicy{
			BaseDelay: base, MaxDelay: cap,
			rand: func() float64 { return draw },
		}.withDefaults()
		for attempt := 1; attempt <= 6; attempt++ {
			exp := base
			for i := 1; i < attempt && exp < cap; i++ {
				exp *= 2
			}
			if exp > cap {
				exp = cap
			}
			d := pol.delay(attempt, nil)
			lo := time.Duration(float64(exp) * 0.8)
			hi := time.Duration(float64(exp) * 1.2)
			if d < lo || d > hi {
				t.Fatalf("attempt %d draw %.2f: delay %v outside [%v, %v]", attempt, draw, d, lo, hi)
			}
		}
	}
	// A server's Retry-After hint floors the schedule even at the
	// lowest jitter draw.
	pol := RetryPolicy{BaseDelay: base, MaxDelay: cap, rand: func() float64 { return 0 }}.withDefaults()
	if d := pol.delay(1, &ShedError{RetryAfter: 2}); d != 2*time.Second {
		t.Fatalf("Retry-After floor: delay %v, want 2s", d)
	}
}

// TestSubmitRetriesShed: a submission shed twice with 429 + Retry-After
// succeeds on the third attempt, and every backoff honors the server's
// Retry-After floor even when the exponential schedule is shorter.
func TestSubmitRetriesShed(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "queue full", RetryAfter: 1})
			return
		}
		writeJSON(w, http.StatusAccepted, Status{ID: "job-1", State: StateQueued})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := &Client{Base: srv.URL, Retry: instantRetry(4, &slept)}
	st, err := c.Submit(context.Background(), Spec{Workload: "cartpole", Seed: seedRetry})
	if err != nil {
		t.Fatalf("submit with retries: %v", err)
	}
	if st.ID != "job-1" {
		t.Fatalf("got %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2: %v", len(slept), slept)
	}
	for i, d := range slept {
		if d != time.Second {
			t.Fatalf("backoff %d = %s, want the 1s Retry-After floor (base is 10ms)", i, d)
		}
	}
}

// TestRetryTransportError: a connection-refused transport error is
// retried up to the budget, then surfaced.
func TestRetryTransportError(t *testing.T) {
	// An address that refuses connections: bind-and-close.
	srv := httptest.NewServer(http.NotFoundHandler())
	dead := srv.URL
	srv.Close()

	var slept []time.Duration
	c := &Client{Base: dead, Retry: instantRetry(3, &slept)}
	_, err := c.Submit(context.Background(), Spec{Workload: "cartpole", Seed: seedRetry + 1})
	if err == nil {
		t.Fatal("submit against a dead server succeeded")
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (3 attempts): %v", len(slept), slept)
	}
	// Pure exponential here — no Retry-After floor: 10ms then 20ms.
	if slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Fatalf("backoff schedule %v, want [10ms 20ms]", slept)
	}
}

// TestNoRetryOnClientError: 4xx semantics (other than 429) mean the
// request itself is wrong — retrying would just repeat it.
func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "unknown workload"})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := &Client{Base: srv.URL, Retry: instantRetry(5, &slept)}
	if _, err := c.Submit(context.Background(), Spec{Workload: "nope"}); err == nil {
		t.Fatal("bad request succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts for a 400, want 1", got)
	}
	if len(slept) != 0 {
		t.Fatalf("slept %v for a non-retryable error", slept)
	}
}

// sseRecord writes one generation event.
func sseRecord(t *testing.T, w http.ResponseWriter, gen int) {
	t.Helper()
	data, err := json.Marshal(hwsim.Record{Workload: "fake", Generation: gen})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "event: generation\ndata: %s\n\n", data)
}

// TestWatchReconnectResumes: the first subscription dies mid-stream
// after three generations; the reconnected subscription replays the
// full history plus the rest and the done event. The callback must see
// every generation exactly once across the drop, and Watch must return
// the terminal status.
func TestWatchReconnectResumes(t *testing.T) {
	total := 5
	var conns atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		conn := conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		flusher := w.(http.Flusher)
		if conn == 1 {
			// Three generations, then the connection dies abruptly —
			// the daemon was killed mid-stream.
			for g := 0; g < 3; g++ {
				sseRecord(t, w, g)
			}
			flusher.Flush()
			panic(http.ErrAbortHandler)
		}
		// The restarted daemon replays the full history, then finishes.
		for g := 0; g < total; g++ {
			sseRecord(t, w, g)
		}
		data, _ := json.Marshal(Status{ID: "job-1", State: StateDone, Solved: true, Generations: total})
		fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
		flusher.Flush()
	})
	mux.HandleFunc("GET /jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Status{ID: "job-1", State: StateRunning})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var slept []time.Duration
	c := &Client{Base: srv.URL, Retry: instantRetry(4, &slept)}
	var got []int
	final, err := c.Watch(context.Background(), "job-1", func(r hwsim.Record) error {
		got = append(got, r.Generation)
		return nil
	})
	if err != nil {
		t.Fatalf("watch across a dropped stream: %v", err)
	}
	if final.State != StateDone || !final.Solved {
		t.Fatalf("final %+v, want done solved", final)
	}
	if conns.Load() != 2 {
		t.Fatalf("server saw %d subscriptions, want 2", conns.Load())
	}
	if len(got) != total {
		t.Fatalf("callback saw generations %v, want each of 0..%d exactly once", got, total-1)
	}
	for i, g := range got {
		if g != i {
			t.Fatalf("callback saw generations %v: duplicates or gaps across the reconnect", got)
		}
	}
}

// TestWatchNoRetryWithoutPolicy: the zero-value policy keeps old
// single-shot semantics — a dropped stream on a non-terminal job is an
// error, not a silent hang.
func TestWatchNoRetryWithoutPolicy(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		sseRecord(t, w, 0)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	mux.HandleFunc("GET /jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Status{ID: "job-1", State: StateRunning})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Client{Base: srv.URL}
	if _, err := c.Watch(context.Background(), "job-1", nil); err == nil {
		t.Fatal("dropped stream with no retry policy returned no error")
	}
}

// TestWatchEndedStreamOfRunningJobIsAnError: a stream that ends
// cleanly without a done event while the job is still running is a
// dropped stream. Watch reconnects within its budget, then returns an
// error, never a nil error with the running status.
func TestWatchEndedStreamOfRunningJobIsAnError(t *testing.T) {
	var conns atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		sseRecord(t, w, 0)
	})
	mux.HandleFunc("GET /jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Status{ID: "job-1", State: StateRunning})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var slept []time.Duration
	for _, pol := range []RetryPolicy{{}, instantRetry(3, &slept)} {
		conns.Store(0)
		c := &Client{Base: srv.URL, Retry: pol}
		st, err := c.Watch(context.Background(), "job-1", nil)
		if err == nil {
			t.Fatalf("stream ended on a running job: Watch returned state %q and no error", st.State)
		}
		if want := max(pol.MaxAttempts, 1); int(conns.Load()) != want {
			t.Fatalf("policy with %d attempts subscribed %d times", pol.MaxAttempts, conns.Load())
		}
	}
}

// TestTerminalJobETag: a finished job's status is served with a strong
// ETag, and revalidating with If-None-Match costs a 304 with no body.
func TestTerminalJobETag(t *testing.T) {
	_, c, _ := startDaemon(t, Config{MaxRunning: 1, MaxQueue: 4})
	ctx := context.Background()
	st, err := c.Submit(ctx, Spec{Workload: "cartpole", Population: 20, Generations: 2, Seed: seedRetry + 60})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Watch(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}

	url := c.Base + "/jobs/" + st.ID
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("terminal GET: status %d etag %q, want 200 with an ETag", resp.StatusCode, etag)
	}

	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation with the ETag: status %d, want 304", resp2.StatusCode)
	}
}
