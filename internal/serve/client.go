package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hw/hwsim"
)

// Client talks to a genesysd instance: the programmatic form of
// genesysctl, and the load generator the integration tests drive a
// real server with.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8177".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Name, when set, is sent as X-Genesys-Client on every request.
	Name string
	// Retry governs backoff on shed (429) responses and transient
	// transport errors, and the Watch reconnect budget. The zero value
	// never retries.
	Retry RetryPolicy
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Name != "" {
		req.Header.Set("X-Genesys-Client", c.Name)
	}
	return c.http().Do(req)
}

// apiError decodes a non-2xx response into an error. 429 responses
// come back as *ShedError carrying the Retry-After hint, so callers
// can distinguish shed load from failure.
func apiError(resp *http.Response) error {
	var body errorBody
	json.NewDecoder(resp.Body).Decode(&body)
	msg := body.Error
	if msg == "" {
		msg = resp.Status
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		after := body.RetryAfter
		if after == 0 {
			after, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
		}
		return &ShedError{Reason: msg, RetryAfter: after}
	}
	return fmt.Errorf("%s: %s", resp.Status, msg)
}

// call makes one request under the client's retry policy: a response
// with status want decodes into a T, any other is an apiError. On
// error it returns T's zero value.
func call[T any](ctx context.Context, c *Client, method, path string, body any, want int) (T, error) {
	var out T
	err := c.withRetry(ctx, func() error {
		resp, err := c.do(ctx, method, path, body)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			return apiError(resp)
		}
		return json.NewDecoder(resp.Body).Decode(&out)
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

// Submit posts one job. A shed submission returns *ShedError.
func (c *Client) Submit(ctx context.Context, spec Spec) (Status, error) {
	return call[Status](ctx, c, http.MethodPost, "/jobs", spec, http.StatusAccepted)
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (Status, error) {
	return call[Status](ctx, c, http.MethodGet, "/jobs/"+id, nil, http.StatusOK)
}

// Cancel cancels one job.
func (c *Client) Cancel(ctx context.Context, id string) (Status, error) {
	return call[Status](ctx, c, http.MethodDelete, "/jobs/"+id, nil, http.StatusOK)
}

// Checkpoint asks a job to persist at its next generation boundary.
func (c *Client) Checkpoint(ctx context.Context, id string) (Status, error) {
	return call[Status](ctx, c, http.MethodPost, "/jobs/"+id+"/checkpoint", nil, http.StatusAccepted)
}

// List fetches every job in submission order.
func (c *Client) List(ctx context.Context) ([]Status, error) {
	out, err := call[struct {
		Jobs []Status `json:"jobs"`
	}](ctx, c, http.MethodGet, "/jobs", nil, http.StatusOK)
	return out.Jobs, err
}

// Metrics fetches the daemon's counter registry snapshot.
func (c *Client) Metrics(ctx context.Context) (hwsim.Report, error) {
	return call[hwsim.Report](ctx, c, http.MethodGet, "/metrics", nil, http.StatusOK)
}

// watchAbort marks an error that must end the watch without a
// reconnect: the caller's callback said stop, or an event failed to
// decode.
type watchAbort struct{ err error }

func (e *watchAbort) Error() string { return e.err.Error() }
func (e *watchAbort) Unwrap() error { return e.err }

// watchDropped marks a mid-stream read failure — an established
// subscription that died (daemon killed, connection reset). Always
// worth a reconnect: the server replays history, the client skips
// what it has seen.
type watchDropped struct{ err error }

func (e *watchDropped) Error() string { return e.err.Error() }
func (e *watchDropped) Unwrap() error { return e.err }

// Watch subscribes to a job's SSE stream, invoking fn (which may be
// nil) for every generation record — history replay included — and
// returns the job's terminal status from the final done event. A
// non-nil error from fn aborts the watch. A nil error always comes with
// a terminal status.
//
// A dropped stream (daemon restart, broken connection, clean EOF
// before the job finished) reconnects under the client's RetryPolicy
// and resumes from the last-seen event: the server replays the full
// history on every subscription, and the client skips the records it
// already delivered, so fn sees each generation exactly once across
// any number of reconnects. Progress resets the attempt budget —
// only consecutive fruitless reconnects exhaust it.
func (c *Client) Watch(ctx context.Context, id string, fn func(hwsim.Record) error) (Status, error) {
	pol := c.Retry.withDefaults()
	attempts := pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	seen, failures := 0, 0
	for {
		before := seen
		final, err := c.watchOnce(ctx, id, fn, &seen)
		if err != nil {
			var abort *watchAbort
			if errors.As(err, &abort) {
				return Status{}, abort.err
			}
			var dropped *watchDropped
			if !errors.As(err, &dropped) && !retryable(ctx, err) {
				return Status{}, err
			}
			if ctx.Err() != nil {
				return Status{}, err
			}
		} else if final != nil {
			return *final, nil
		} else {
			// Clean EOF without a done event: a drained daemon ends
			// streams after the job is already terminal — fetch the
			// status; if the job really is finished there is nothing to
			// reconnect for.
			st, jerr := c.Job(ctx, id)
			if jerr == nil && st.State.Terminal() {
				return st, nil
			}
			if err = jerr; err == nil {
				err = fmt.Errorf("serve: event stream of job %s ended while it is %s", id, st.State)
			}
		}
		if seen > before {
			failures = 0
		}
		failures++
		if failures >= attempts {
			return Status{}, err
		}
		if serr := pol.sleep(ctx, pol.delay(failures, err)); serr != nil {
			return Status{}, serr
		}
	}
}

// watchOnce runs one SSE subscription. It bumps *seen past every
// generation event it observes and invokes fn only for events beyond
// the initial *seen — the resume-from-counter contract reconnects rely
// on. Returns the terminal status if a done event arrived, nil on a
// dropped stream.
func (c *Client) watchOnce(ctx context.Context, id string, fn func(hwsim.Record) error, seen *int) (*Status, error) {
	resp, err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}

	var event string
	var data bytes.Buffer
	events := 0
	sc := bufio.NewScanner(resp.Body)
	// Start small — SSE event lines are a few hundred bytes — and let
	// the scanner grow toward the 1 MiB cap only if a line demands it.
	// A pre-sized 1 MiB buffer here costs a zeroed large alloc per
	// watched job, which at load-test rates turns into GC pressure that
	// throttles the very workers the watch is timing.
	sc.Buffer(make([]byte, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		case line == "":
			// Dispatch boundary.
			switch event {
			case "generation":
				events++
				if events > *seen {
					*seen = events
					if fn != nil {
						var rec hwsim.Record
						if err := json.Unmarshal(data.Bytes(), &rec); err != nil {
							return nil, &watchAbort{fmt.Errorf("bad generation event: %w", err)}
						}
						if err := fn(rec); err != nil {
							return nil, &watchAbort{err}
						}
					}
				}
			case "done":
				var st Status
				if err := json.Unmarshal(data.Bytes(), &st); err != nil {
					return nil, &watchAbort{fmt.Errorf("bad done event: %w", err)}
				}
				if !st.State.Terminal() {
					return nil, &watchAbort{fmt.Errorf("bad done event: state %q is not terminal", st.State)}
				}
				return &st, nil
			}
			event = ""
			data.Reset()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, &watchDropped{err}
	}
	return nil, nil
}

// LoadSpec configures one load-generator sweep.
type LoadSpec struct {
	// Template is the job all submissions derive from.
	Template Spec
	// Jobs is the number of submissions.
	Jobs int
	// Concurrency caps in-flight submissions (0 means Jobs).
	Concurrency int
	// DistinctSeeds offsets each submission's seed by its index, so
	// every job is a unique evolution; false submits identical specs,
	// exercising the shared run cache.
	DistinctSeeds bool
	// Watch makes every admitted submission follow its SSE stream to
	// completion (counting records); false fire-and-forgets.
	Watch bool
}

// LoadReport aggregates one load-generator sweep.
type LoadReport struct {
	Submitted  int           `json:"submitted"`
	Admitted   int           `json:"admitted"`
	Shed       int           `json:"shed"`
	Rejected   int           `json:"rejected"`
	Completed  int           `json:"completed"`
	Failed     int           `json:"failed"`
	Cancelled  int           `json:"cancelled"`
	Records    int           `json:"records"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	JobsPerSec float64       `json:"jobs_per_sec"`
}

// Load drives the load-generator sweep: Jobs submissions at the
// configured concurrency, watching the admitted ones to completion
// when asked. Shed (429) submissions are counted, not retried — the
// point of the shedding policy is that the client learns immediately.
func (c *Client) Load(ctx context.Context, spec LoadSpec) (LoadReport, error) {
	if spec.Jobs <= 0 {
		spec.Jobs = 1
	}
	conc := spec.Concurrency
	if conc <= 0 || conc > spec.Jobs {
		conc = spec.Jobs
	}
	var (
		rep     LoadReport
		mu      sync.Mutex
		records atomic.Int64
		wg      sync.WaitGroup
		sem     = make(chan struct{}, conc)
	)
	start := time.Now()
	for i := 0; i < spec.Jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			job := spec.Template
			if spec.DistinctSeeds {
				job.Seed = job.Seed + uint64(i)
			}
			st, err := c.Submit(ctx, job)
			mu.Lock()
			rep.Submitted++
			mu.Unlock()
			if err != nil {
				mu.Lock()
				if _, ok := err.(*ShedError); ok {
					rep.Shed++
				} else {
					rep.Rejected++
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			rep.Admitted++
			mu.Unlock()
			if !spec.Watch {
				return
			}
			final, err := c.Watch(ctx, st.ID, func(hwsim.Record) error {
				records.Add(1)
				return nil
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				rep.Failed++
				return
			}
			switch final.State {
			case StateDone:
				rep.Completed++
			case StateCancelled:
				rep.Cancelled++
			default:
				rep.Failed++
			}
		}(i)
	}
	wg.Wait()
	rep.Records = int(records.Load())
	rep.Elapsed = time.Since(start)
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.JobsPerSec = float64(rep.Completed) / secs
	}
	return rep, nil
}
