package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/hw/hwsim"
)

// subBuffer is the per-subscriber channel depth. A generation record
// is a few hundred bytes and job budgets are a few hundred
// generations, so a buffer this size absorbs any realistic burst; a
// subscriber that still falls behind loses records (counted) rather
// than stalling the evolution loop.
const subBuffer = 256

// stream is one job's record history plus its live subscribers — the
// adapter that turns the pull-free hwsim.Sink contract ("records are
// pushed at you") into the replay-then-follow contract SSE clients
// need ("give me everything so far, then keep going"). It implements
// hwsim.Sink, so it plugs directly into evolve.Runner.Sink.
//
// Subscribe and Record are serialized by one mutex, which is what
// makes the replay seam exact: a subscriber atomically receives the
// full history and a channel that sees every later record, with no
// record lost or duplicated across the boundary.
type stream struct {
	mu      sync.Mutex
	recs    []hwsim.Record
	subs    map[int]chan hwsim.Record
	nextSub int
	closed  bool

	dropped atomic.Int64
}

func newStream() *stream {
	return &stream{subs: map[int]chan hwsim.Record{}}
}

// Record appends to the history and fans out to every live
// subscriber. It never blocks: a full subscriber channel drops the
// record for that subscriber only (the history still has it).
func (s *stream) Record(r hwsim.Record) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.recs = append(s.recs, r)
	for _, ch := range s.subs {
		select {
		case ch <- r:
		default:
			s.dropped.Add(1)
		}
	}
	s.mu.Unlock()
}

// Subscribe returns the history so far and a channel carrying every
// subsequent record; the channel is closed when the stream closes.
// The returned cancel func detaches the subscriber (idempotent,
// safe after close).
func (s *stream) Subscribe() (history []hwsim.Record, ch <-chan hwsim.Record, cancel func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	history = append([]hwsim.Record(nil), s.recs...)
	c := make(chan hwsim.Record, subBuffer)
	if s.closed {
		close(c)
		return history, c, func() {}
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = c
	return history, c, func() {
		s.mu.Lock()
		if sub, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(sub)
		}
		s.mu.Unlock()
	}
}

// Len returns the number of records in the history.
func (s *stream) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Close ends the stream: every subscriber channel is closed and later
// Record calls are ignored. Idempotent.
func (s *stream) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for id, ch := range s.subs {
			delete(s.subs, id)
			close(ch)
		}
	}
	s.mu.Unlock()
}

// Dropped reports how many records were dropped on full subscriber
// channels.
func (s *stream) Dropped() int64 { return s.dropped.Load() }

// Subscribers reports the live subscriber count.
func (s *stream) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}
