package serve

import (
	"sync"

	"repro/internal/hw/hwsim"
)

// stream is one job's record log: an append-only history that every
// SSE subscriber reads by index with a cursor of its own — the adapter
// that turns the pull-free hwsim.Sink contract ("records are pushed at
// you") into the replay-then-follow contract SSE clients need ("give
// me everything so far, then keep going"). It implements hwsim.Sink,
// so it plugs directly into evolve.Runner.Sink.
//
// Subscribers share the one history, so Record never blocks on a
// reader and a slow reader loses nothing: it reads a longer batch
// when it gets back.
type stream struct {
	mu     sync.Mutex
	recs   []hwsim.Record
	closed bool
	// more is closed, and replaced, when a record arrives; Close closes
	// it for good. It wakes every reader that has caught up.
	more chan struct{}
}

func newStream() *stream {
	return &stream{more: make(chan struct{})}
}

// Record appends to the log and wakes waiting readers. Records after
// Close are ignored.
func (s *stream) Record(r hwsim.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.recs = append(s.recs, r)
	close(s.more)
	s.more = make(chan struct{})
}

// Close ends the log and wakes waiting readers. Idempotent.
func (s *stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.more)
	}
}

// Read returns the records from index from on, whether the log is
// closed, and a channel that closes once there is more to read. The
// three are taken together, so a record that lands after the read
// closes more and none falls between two reads. The records are a
// capacity-capped sub-slice of the history, which is never written
// again; a closed log holds every record it ever will.
func (s *stream) Read(from int) (recs []hwsim.Record, closed bool, more <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.recs); from < n {
		recs = s.recs[from:n:n]
	}
	return recs, s.closed, s.more
}
