package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hw/hwsim"
)

func rec(gen int) hwsim.Record {
	return hwsim.Record{Workload: "w", Generation: gen}
}

// readAll follows s from index 0 the way the SSE handler does, until
// the log closes, and returns every record it read.
func readAll(s *stream) []hwsim.Record {
	var seen []hwsim.Record
	for {
		recs, closed, more := s.Read(len(seen))
		seen = append(seen, recs...)
		if closed {
			return seen
		}
		<-more
	}
}

// TestStreamReplaySeam: subscribers attaching mid-stream each see
// every record exactly once — history replay plus live follow with no
// loss or duplication across the attach boundary, even while records
// land and other subscribers read the same log.
func TestStreamReplaySeam(t *testing.T) {
	const total, readers = 200, 4
	s := newStream()
	var wg sync.WaitGroup
	seen := make([][]hwsim.Record, readers)
	for i := 0; i < total; i++ {
		if k := i / (total / readers); i%(total/readers) == 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				seen[k] = readAll(s)
			}()
		}
		s.Record(rec(i))
	}
	s.Close()
	wg.Wait()

	for k, got := range seen {
		if len(got) != total {
			t.Fatalf("subscriber %d saw %d records, want %d", k, len(got), total)
		}
		for i, r := range got {
			if r.Generation != i {
				t.Fatalf("subscriber %d: record %d has generation %d: lost or duplicated at the seam", k, i, r.Generation)
			}
		}
	}
}

// TestStreamCloseIdempotent: records after close are ignored, late
// subscribers get the full history, a closed flag and an
// already-closed wake channel, and double close is safe.
func TestStreamCloseIdempotent(t *testing.T) {
	s := newStream()
	s.Record(rec(0))
	s.Record(rec(1))
	s.Close()
	s.Close()
	s.Record(rec(2)) // ignored

	history, closed, more := s.Read(0)
	if len(history) != 2 {
		t.Fatalf("late subscriber got %d history records, want 2", len(history))
	}
	if !closed {
		t.Fatal("late subscriber should see the stream closed")
	}
	select {
	case <-more:
	default:
		t.Fatal("late subscriber's wake channel should be closed")
	}
	if rest, _, _ := s.Read(2); len(rest) != 0 {
		t.Fatalf("read past the end returned %d records", len(rest))
	}
}

// TestStreamSlowReaderLosesNothing: a stream that records 1,000
// records before anyone reads still yields all 1,000 in order, Record
// never blocks, and a reader appending to a batch it was handed cannot
// write into the log.
func TestStreamSlowReaderLosesNothing(t *testing.T) {
	const total = 1000
	s := newStream()
	_, _, more := s.Read(0)
	for i := 0; i < total; i++ {
		s.Record(rec(i)) // would deadlock here if Record blocked
	}
	select {
	case <-more:
	default:
		t.Fatal("a record did not wake the waiting reader")
	}
	recs, closed, _ := s.Read(0)
	if closed || len(recs) != total {
		t.Fatalf("read %d records (closed %v), want %d open", len(recs), closed, total)
	}
	for i, r := range recs {
		if r.Generation != i {
			t.Fatalf("record %d has generation %d", i, r.Generation)
		}
	}

	_ = append(recs, rec(-1))
	s.Record(rec(total))
	s.Close()
	if tail, _, _ := s.Read(total); len(tail) != 1 || tail[0].Generation != total {
		t.Fatalf("the log's next record is %+v, want generation %d", tail, total)
	}
	if got := readAll(s); len(got) != total+1 {
		t.Fatalf("read %d records after close, want %d", len(got), total+1)
	}
}

// pipeResponse is a streaming http.ResponseWriter whose body goes into
// a pipe, so the handler's writes block until the test reads them.
type pipeResponse struct {
	header http.Header
	*io.PipeWriter
}

func (p pipeResponse) Header() http.Header { return p.header }
func (pipeResponse) WriteHeader(int)       {}
func (pipeResponse) Flush()                {}

// TestEventsStalledSubscriberGetsEveryRecord: an SSE subscriber that
// reads nothing while its job records 1,000 records, and only starts
// reading once the job is done, still receives 1,000 generation
// events in order, then done.
func TestEventsStalledSubscriberGetsEveryRecord(t *testing.T) {
	const total = 1000
	release := make(chan struct{})
	sched := NewScheduler(Config{MaxRunning: 1, Executor: execFunc(func(ctx context.Context, j *Job, sink hwsim.Sink) (Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return Outcome{}, ctx.Err()
		}
		for i := 0; i < total; i++ {
			sink.Record(hwsim.Record{Workload: j.Spec.Workload, Generation: i})
		}
		return Outcome{Computed: true, Gens: total}, nil
	})})
	defer sched.Drain(5 * time.Second)
	j, err := sched.Submit(Spec{Workload: "cartpole", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	defer pr.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer pw.Close()
		req := httptest.NewRequest(http.MethodGet, "/jobs/"+j.ID+"/events", nil)
		NewServer(sched).ServeHTTP(pipeResponse{http.Header{}, pw}, req)
	}()
	subscribers := func() int64 { return sched.Counters().Snapshot().Int("stream/subscribers") }
	// Release the job only once the handler is subscribed, so every
	// record lands while the subscriber is stalled.
	waitFor(t, 10*time.Second, "the SSE handler to subscribe", func() bool { return subscribers() == 1 })
	close(release)
	<-j.Done()

	var gens []int
	var final *Status
	event := ""
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "generation":
			if final != nil {
				t.Fatal("generation event after done")
			}
			var r hwsim.Record
			if err := json.Unmarshal([]byte(data), &r); err != nil {
				t.Fatal(err)
			}
			gens = append(gens, r.Generation)
		case "done":
			final = new(Status)
			if err := json.Unmarshal([]byte(data), final); err != nil {
				t.Fatal(err)
			}
		}
	}
	<-served
	if len(gens) != total {
		t.Fatalf("stalled subscriber received %d generation events, want %d", len(gens), total)
	}
	for i, g := range gens {
		if g != i {
			t.Fatalf("generation event %d carries generation %d", i, g)
		}
	}
	if final == nil || final.State != StateDone || final.Generations != total {
		t.Fatalf("done event %+v, want state done with %d generations", final, total)
	}
	if n := subscribers(); n != 0 {
		t.Fatalf("stream/subscribers = %d after the stream ended, want 0", n)
	}
}
