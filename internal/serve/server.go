package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"

	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// Server is the genesysd HTTP surface over one Scheduler.
//
// Routes:
//
//	POST   /jobs                 submit a job (Spec JSON) → 202 Status
//	GET    /jobs                 list jobs in submission order
//	GET    /jobs/{id}            one job's Status
//	DELETE /jobs/{id}            cancel (queued or running)
//	POST   /jobs/{id}/checkpoint checkpoint at the next generation boundary
//	GET    /jobs/{id}/events     Server-Sent Events record stream
//	GET    /metrics              the hwsim counter registry as JSON
//	GET    /healthz              liveness + drain state
//	GET    /store                persistent run-store stats
//	POST   /store/gc             run one GC pass, return its accounting
//	GET    /store/quarantine     list quarantined artifacts
//	DELETE /store/quarantine     purge the quarantine
//
// Terminal job results are immutable (a done job never changes), so
// GET /jobs/{id} carries an ETag once terminal and honors
// If-None-Match with 304 — real HTTP caching semantics for the result
// a client polls. The /store routes 404 when no store is configured.
//
// Admission failures: 429 (+ Retry-After seconds) when shed over the
// queue depth or per-client cap, 503 while draining, 400 for invalid
// specs, 413 for a body longer than maxBody.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer wires the routes over the scheduler.
func NewServer(sched *Scheduler) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /jobs/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /store", s.handleStoreStats)
	s.mux.HandleFunc("POST /store/gc", s.handleStoreGC)
	s.mux.HandleFunc("GET /store/quarantine", s.handleStoreQuarantine)
	s.mux.HandleFunc("DELETE /store/quarantine", s.handleStorePurge)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

// maxBody bounds the request bodies the daemon decodes itself (a job
// spec, a cluster join); either is well under 1 KB.
const maxBody = 1 << 20

// readJSON decodes one JSON value from the request body into v,
// reading at most maxBody bytes. It also returns the status a refusal
// should carry: 413 when the body passed the limit, else 400.
func readJSON(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	var tooLong *http.MaxBytesError
	if errors.As(err, &tooLong) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// clientOf resolves the submitter identity for the per-client cap:
// the spec's own client field, then the X-Genesys-Client header, then
// the remote host.
func clientOf(spec Spec, r *http.Request) string {
	if spec.Client != "" {
		return spec.Client
	}
	if h := r.Header.Get("X-Genesys-Client"); h != "" {
		return h
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if code, err := readJSON(w, r, &spec); err != nil {
		writeJSON(w, code, errorBody{Error: fmt.Sprintf("bad spec: %v", err)})
		return
	}
	spec.Client = clientOf(spec, r)
	j, err := s.sched.Submit(spec)
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: shed.Reason, RetryAfter: shed.RetryAfter})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "daemon is draining"})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, j.Status())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.Jobs()
	out := struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: make([]Status, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	st := j.Status()
	if !st.State.Terminal() {
		writeJSON(w, http.StatusOK, st)
		return
	}
	// Terminal results never change: serve them with a strong ETag so a
	// polling client's revalidation costs one 304 instead of a body.
	body, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	sum := sha256.Sum256(body)
	etag := `"` + hex.EncodeToString(sum[:16]) + `"`
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(body, '\n'))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.sched.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j, err := s.sched.CheckpointJob(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	data, err := s.sched.Counters().Snapshot().JSON()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.sched.mu.Lock()
	draining := s.sched.draining
	s.sched.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}{Status: "ok", Draining: draining})
}

// handleStoreStats serves the persistent store's stats snapshot.
func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	st := s.sched.cfg.Store
	if st == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no store configured"})
		return
	}
	writeJSON(w, http.StatusOK, st.Stats())
}

// handleStoreGC runs one GC pass on demand.
func (s *Server) handleStoreGC(w http.ResponseWriter, r *http.Request) {
	st := s.sched.cfg.Store
	if st == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no store configured"})
		return
	}
	writeJSON(w, http.StatusOK, st.GC())
}

// handleStoreQuarantine lists quarantined artifacts.
func (s *Server) handleStoreQuarantine(w http.ResponseWriter, r *http.Request) {
	st := s.sched.cfg.Store
	if st == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no store configured"})
		return
	}
	entries := st.Quarantined()
	if entries == nil {
		entries = []store.QuarantineEntry{}
	}
	writeJSON(w, http.StatusOK, struct {
		Quarantine []store.QuarantineEntry `json:"quarantine"`
	}{Quarantine: entries})
}

// handleStorePurge deletes every quarantined artifact.
func (s *Server) handleStorePurge(w http.ResponseWriter, r *http.Request) {
	st := s.sched.cfg.Store
	if st == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no store configured"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Purged int `json:"purged"`
	}{Purged: st.PurgeQuarantine()})
}

// handleEvents streams a job's records as Server-Sent Events:
//
//	event: generation   data: hwsim.Record JSON   (one per generation)
//	event: done         data: Status JSON         (terminal state, then EOF)
//
// The handler reads the job's record log with a cursor of its own, so
// a subscriber attaching mid-run first receives the full history and
// then every later record exactly once, and one that reads slowly
// receives the same records later, never fewer. Each batch the log
// hands over is written out and flushed once.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.sched.subscribers.Add(1)
	defer s.sched.subscribers.Add(-1)
	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		return err == nil
	}
	for next := 0; ; {
		recs, closed, more := j.stream.Read(next)
		for _, rec := range recs {
			if !send("generation", rec) {
				return
			}
		}
		next += len(recs)
		if closed {
			// The job is terminal and every record is out: emit the
			// final status and end the response.
			send("done", j.Status())
			flusher.Flush()
			return
		}
		flusher.Flush()
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

var _ hwsim.Sink = (*stream)(nil)
