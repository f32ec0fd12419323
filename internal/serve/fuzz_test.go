package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/evolve"
	"repro/internal/hw/hwsim"
	"repro/internal/neat"
	"repro/internal/store"
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

// FuzzSubmit posts arbitrary bodies to POST /jobs on a daemon whose
// executor returns at once, so no evolution runs. The handler never
// panics or answers 5xx, and every job it admits (202) has a key whose
// name parses back to it (store.ParseKeyFilename: the checkpoint file
// and the cluster ring both go by that name), a population within
// neat.MaxPopulationSize and a generation budget within the bound
// evolve.CheckGenerations holds runs to.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"cartpole","population":16,"generations":2,"seed":5}`,
		`{"workload":"cartpole","population":16,"islands":2,"migration_every":1}`,
		`{"workload":"mountaincar","objectives":"fitness+genes+energy"}`,
		`{"workload":"cartpole","population":4611686018427387904}`,
		`{"workload":"alien-ram","population":16,"generations":4611686018427387904}`,
		`{"workload":"alien-ram","population":-1,"generations":-1,"seed":18446744073709551615}`,
		`{"workload":"cartpole","islands":2,"objectives":"fitness+genes"}`,
		`{"workload":"no-such-env"}`,
		`{"workload":`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sched := NewScheduler(Config{MaxRunning: 1, Executor: execFunc(func(context.Context, *Job, hwsim.Sink) (Outcome, error) {
			return Outcome{}, nil
		})})
		defer sched.Drain(5 * time.Second)
		rr := httptest.NewRecorder()
		NewServer(sched).ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if rr.Code >= 500 {
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
		if rr.Code != http.StatusAccepted {
			return
		}
		var st Status
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
			t.Fatalf("202 body: %v (%s)", err, rr.Body)
		}
		key := st.Spec.key()
		if k, ok := store.ParseKeyFilename(key.String()); !ok || k != key {
			t.Fatalf("admitted key %+v: its name %q parses to %+v (%v)", key, key.String(), k, ok)
		}
		if st.Spec.Population > neat.MaxPopulationSize {
			t.Fatalf("admitted population %d, bound %d", st.Spec.Population, neat.MaxPopulationSize)
		}
		if err := evolve.CheckGenerations(st.Spec.Generations); err != nil {
			t.Fatalf("admitted %v", err)
		}
	})
}

// FuzzClusterJoin posts arbitrary bodies to a coordinator's POST
// /cluster/join. It never answers 5xx. A 200 adds exactly one alive
// member, with the body's addr, to GET /cluster; any other answer
// leaves the membership as it was: empty.
func FuzzClusterJoin(f *testing.F) {
	for _, seed := range []string{
		`{"addr":"http://127.0.0.1:7001"}`,
		`{"addr":""}`,
		`{"Addr":"http://w1","extra":[1,2]}`,
		`{"addr":7}`,
		`{"addr":"http://w1","addr":"http://w2"}`,
		`{"addr":"\u0000\ud800 \xff"}`,
		`{"addr":"http://a"}{"addr":"http://b"}`,
		`{"addr":`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sched := NewScheduler(Config{MaxRunning: 1})
		defer sched.Drain(0)
		server := NewServer(sched)
		server.EnableCluster(cluster.NewMembership(cluster.MembershipConfig{}))
		rr := httptest.NewRecorder()
		server.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/cluster/join", bytes.NewReader(body)))
		if rr.Code >= 500 {
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
		get := httptest.NewRecorder()
		server.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/cluster", nil))
		var status ClusterStatus
		if err := json.Unmarshal(get.Body.Bytes(), &status); err != nil {
			t.Fatalf("GET /cluster: %v (%s)", err, get.Body)
		}
		if rr.Code != http.StatusOK {
			if len(status.Members) != 0 {
				t.Fatalf("a %d join left members %+v", rr.Code, status.Members)
			}
			return
		}
		var req struct {
			Addr string `json:"addr"`
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		if len(status.Members) != 1 || status.Members[0].Addr != req.Addr || !status.Members[0].Alive {
			t.Fatalf("a 200 join of %q left members %+v, want that one alive member", req.Addr, status.Members)
		}
	})
}
