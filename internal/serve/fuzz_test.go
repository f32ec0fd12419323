package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hw/hwsim"
)

// FuzzWatch feeds arbitrary bodies to the client's SSE parser: a
// server answers GET /jobs/j/events with the fuzz input and GET
// /jobs/j with a terminal status. Watch, under the zero RetryPolicy,
// returns without panicking or hanging, invokes its callback at most
// once per "event: generation" block, and returns a nil error only
// with a terminal state.
func FuzzWatch(f *testing.F) {
	var body atomic.Pointer[[]byte]
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/j/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write(*body.Load())
	})
	mux.HandleFunc("GET /jobs/j", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Status{ID: "j", State: StateDone})
	})
	srv := httptest.NewServer(mux)
	f.Cleanup(srv.Close)

	gen := func(g int) string {
		data, err := json.Marshal(hwsim.Record{Workload: "cartpole", Generation: g,
			Report: hwsim.Report{Name: "gen", Floats: map[string]float64{"max_fitness": float64(10 * g)}}})
		if err != nil {
			f.Fatal(err)
		}
		return "event: generation\ndata: " + string(data) + "\n\n"
	}
	done, err := json.Marshal(Status{ID: "j", State: StateDone, Generations: 2, BestFitness: 10})
	if err != nil {
		f.Fatal(err)
	}
	stream := gen(0) + gen(1) + "event: done\ndata: " + string(done) + "\n\n"
	for _, seed := range []string{
		stream,
		"event: generation\ndata: {\"workload\":\"cartpole\",\"generation\":\n\n",
		"event: done\ndata: {\"state\":\"done\"\n\n",
		"event: done\ndata: {\"state\":\"running\"}\n\n",
		"data: " + strings.TrimPrefix(gen(0), "event: generation\ndata: "),
		strings.ReplaceAll(stream, "\n", "\r\n"),
		"",
	} {
		f.Add([]byte(seed))
	}

	c := &Client{Base: srv.URL}
	f.Fuzz(func(t *testing.T, in []byte) {
		body.Store(&in)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		calls := 0
		st, err := c.Watch(ctx, "j", func(hwsim.Record) error {
			calls++
			return nil
		})
		if ctx.Err() != nil {
			t.Fatalf("Watch did not return within 10s: %v", err)
		}
		if blocks := generationBlocks(in); calls > blocks {
			t.Fatalf("callback ran %d times for %d generation blocks", calls, blocks)
		}
		if err == nil && !st.State.Terminal() {
			t.Fatalf("nil error with non-terminal state %q", st.State)
		}
	})
}

// generationBlocks counts the "event: generation" lines of an SSE body
// as the client's line scanner splits it (on "\n", dropping one
// trailing "\r"): no more generation events can be dispatched.
func generationBlocks(body []byte) int {
	n := 0
	for _, line := range strings.Split(string(body), "\n") {
		v, ok := strings.CutPrefix(strings.TrimSuffix(line, "\r"), "event:")
		if ok && strings.TrimSpace(v) == "generation" {
			n++
		}
	}
	return n
}
