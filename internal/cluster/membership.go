package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"sort"
	"sync"
	"time"
)

// MemberID derives a worker's stable short identity from its address:
// eight hex characters of a SHA-256, which name the worker on the hash
// ring and in counter names (per-worker gauges).
func MemberID(addr string) string {
	sum := sha256.Sum256([]byte(addr))
	return hex.EncodeToString(sum[:4])
}

// Member is one worker known to the coordinator.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// MemberStatus is the admin view of one worker — what GET /cluster
// reports per member.
type MemberStatus struct {
	Member
	Alive        bool      `json:"alive"`
	Joined       time.Time `json:"joined"`
	LastSeen     time.Time `json:"last_seen,omitempty"`
	FailedChecks int       `json:"failed_checks,omitempty"`
}

// memberState is the registry's internal record.
type memberState struct {
	Member
	alive    bool
	joined   time.Time
	lastSeen time.Time
	failures int
}

// MembershipConfig tunes the registry. Zero values select defaults.
type MembershipConfig struct {
	// Vnodes is the ring's virtual-node count per member (0 =
	// DefaultVnodes).
	Vnodes int
	// HeartbeatEvery is the health-check poll interval (0 = 2s).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout bounds one health-check request (0 = 1s).
	HeartbeatTimeout time.Duration
	// FailAfter is the consecutive failed heartbeats that mark a member
	// dead and remove it from the ring (0 = 3). A dispatch-observed
	// transport failure (ReportFailure) skips the count: the connection
	// to the worker demonstrably broke mid-job.
	FailAfter int
	// HTTP is the health-check transport; nil means http.DefaultClient
	// (per-request timeouts come from HeartbeatTimeout).
	HTTP *http.Client
	// OnChange, when set, is invoked (without the registry lock) after
	// any membership change: join, death, revival.
	OnChange func()
	// now is the test seam for time.
	now func() time.Time
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.HTTP == nil {
		c.HTTP = http.DefaultClient
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Membership is the coordinator's worker registry: who is in the
// fleet, who is alive, and — through the embedded consistent-hash
// ring — who owns which run-cache key. All methods are safe for
// concurrent use.
type Membership struct {
	cfg MembershipConfig

	mu      sync.Mutex
	ring    *Ring
	members map[string]*memberState // by id
}

// NewMembership builds an empty registry.
func NewMembership(cfg MembershipConfig) *Membership {
	cfg = cfg.withDefaults()
	return &Membership{cfg: cfg, ring: NewRing(cfg.Vnodes), members: map[string]*memberState{}}
}

// Join registers a worker by address (idempotent: re-joining an alive
// member refreshes its last-seen time; re-joining a dead one revives
// it and re-adds its ring points). Returns the member identity.
func (m *Membership) Join(addr string) Member {
	id := MemberID(addr)
	m.mu.Lock()
	st, ok := m.members[id]
	changed := false
	now := m.cfg.now()
	if !ok {
		st = &memberState{Member: Member{ID: id, Addr: addr}, joined: now}
		m.members[id] = st
		changed = true
	}
	st.lastSeen = now
	st.failures = 0
	if !st.alive {
		st.alive = true
		m.ring.Add(id)
		changed = true
	}
	m.mu.Unlock()
	if changed {
		m.notify()
	}
	return st.Member
}

// ReportFailure marks a member dead immediately — the dispatch path
// observed a hard transport failure mid-job, which is stronger
// evidence than a missed heartbeat. Its ring points are removed so
// the very next Owner call re-shards the dead worker's keys. A later
// successful heartbeat (or re-join) revives it.
func (m *Membership) ReportFailure(id string) {
	m.mu.Lock()
	st, ok := m.members[id]
	changed := ok && st.alive
	if changed {
		st.alive = false
		st.failures = m.cfg.FailAfter
		m.ring.Remove(id)
	}
	m.mu.Unlock()
	if changed {
		m.notify()
	}
}

// Owner resolves the live member owning a run-cache key. False when
// no member is alive.
func (m *Membership) Owner(key string) (Member, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.ring.Owner(key)
	if !ok {
		return Member{}, false
	}
	return m.members[id].Member, true
}

// Live returns the alive members sorted by id.
func (m *Membership) Live() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Member
	for _, st := range m.members {
		if st.alive {
			out = append(out, st.Member)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Status reports every known member (alive and dead) sorted by id,
// plus the ring's point count.
func (m *Membership) Status() ([]MemberStatus, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []MemberStatus
	for _, st := range m.members {
		out = append(out, MemberStatus{
			Member: st.Member, Alive: st.alive,
			Joined: st.joined, LastSeen: st.lastSeen, FailedChecks: st.failures,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, m.ring.Points()
}

// Run drives the heartbeat loop until ctx is cancelled: every
// HeartbeatEvery, each known member (dead ones included — that is how
// a worker that restarted in place revives) is probed with GET
// /healthz; FailAfter consecutive failures remove it from the ring.
func (m *Membership) Run(ctx context.Context) {
	t := time.NewTicker(m.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.CheckOnce(ctx)
		}
	}
}

// CheckOnce performs one heartbeat round over every known member —
// exported so tests (and a future admin surface) can force a round
// without waiting out the ticker.
func (m *Membership) CheckOnce(ctx context.Context) {
	m.mu.Lock()
	probes := make([]Member, 0, len(m.members))
	for _, st := range m.members {
		probes = append(probes, st.Member)
	}
	m.mu.Unlock()
	sort.Slice(probes, func(i, j int) bool { return probes[i].ID < probes[j].ID })

	for _, mem := range probes {
		ok := m.probe(ctx, mem.Addr)
		m.mu.Lock()
		st, known := m.members[mem.ID]
		changed := false
		if known {
			if ok {
				st.lastSeen = m.cfg.now()
				st.failures = 0
				if !st.alive {
					st.alive = true
					m.ring.Add(st.ID)
					changed = true
				}
			} else {
				st.failures++
				if st.alive && st.failures >= m.cfg.FailAfter {
					st.alive = false
					m.ring.Remove(st.ID)
					changed = true
				}
			}
		}
		m.mu.Unlock()
		if changed {
			m.notify()
		}
	}
}

// probe is one health check: GET /healthz within HeartbeatTimeout.
func (m *Membership) probe(ctx context.Context, addr string) bool {
	ctx, cancel := context.WithTimeout(ctx, m.cfg.HeartbeatTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := m.cfg.HTTP.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (m *Membership) notify() {
	if m.cfg.OnChange != nil {
		m.cfg.OnChange()
	}
}
