package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
)

// Seeds 9900s: Pareto jobs and rebalancing. See the seed-range note in
// server_test.go.
const seedPareto = 9900

func paretoSpec(seed uint64) Spec {
	return Spec{
		Workload: "cartpole", Population: 16, Generations: 3,
		Seed: seed, Objectives: "fitness+genes+energy",
	}
}

// collectStream watches a job to completion and returns its terminal
// status plus the full record stream rendered as JSON lines.
func collectStream(t *testing.T, c *Client, id string) (Status, []string) {
	t.Helper()
	var lines []string
	final, err := c.Watch(context.Background(), id, func(r hwsim.Record) error {
		b, jerr := json.Marshal(r)
		if jerr != nil {
			return jerr
		}
		lines = append(lines, string(b))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return final, lines
}

// TestParetoJobStreamAndReplay is the serve-layer acceptance test for
// the pareto job type: a submitted Pareto job finishes done, its SSE
// stream carries the per-generation history followed by the front
// records (monotonic generation numbers throughout), and an identical
// resubmission replays from the run cache with a byte-identical
// stream.
func TestParetoJobStreamAndReplay(t *testing.T) {
	experiments.ResetCaches()
	t.Cleanup(experiments.ResetCaches)
	_, c, _ := startDaemon(t, Config{MaxRunning: 2})
	ctx := context.Background()

	spec := paretoSpec(seedPareto + 1)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	first, live := collectStream(t, c, st.ID)
	if first.State != StateDone {
		t.Fatalf("pareto job finished %s: %s", first.State, first.Error)
	}
	if first.Shared {
		t.Fatal("first pareto job claims a cache hit")
	}
	fronts := 0
	for _, ln := range live {
		if strings.Contains(ln, "cartpole#front") {
			fronts++
		}
	}
	if fronts == 0 {
		t.Fatalf("stream carries no front records:\n%s", strings.Join(live, "\n"))
	}
	// History first, fronts after, generations strictly increasing
	// across the boundary (the dedup invariant failover relies on).
	var recs []hwsim.Record
	for _, ln := range live {
		var r hwsim.Record
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Generation <= recs[i-1].Generation {
			t.Fatalf("generation %d after %d at record %d", recs[i].Generation, recs[i-1].Generation, i)
		}
		if strings.HasSuffix(recs[i-1].Workload, "#front") && !strings.HasSuffix(recs[i].Workload, "#front") {
			t.Fatal("history record after a front record")
		}
	}

	st2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	second, replay := collectStream(t, c, st2.ID)
	if second.State != StateDone || !second.Shared {
		t.Fatalf("replay job: state=%s shared=%v", second.State, second.Shared)
	}
	if len(replay) != len(live) {
		t.Fatalf("replay streamed %d records, live %d", len(replay), len(live))
	}
	for i := range live {
		if live[i] != replay[i] {
			t.Fatalf("record %d differs between live and replay:\n%s\n%s", i, live[i], replay[i])
		}
	}
}

// TestParetoSpecValidation: the HTTP surface rejects contradictory or
// unresolvable Pareto specs at submit time.
func TestParetoSpecValidation(t *testing.T) {
	_, c, _ := startDaemon(t, Config{MaxRunning: 1})
	ctx := context.Background()

	bad := paretoSpec(seedPareto + 10)
	bad.Islands = 2
	if _, err := c.Submit(ctx, bad); err == nil {
		t.Fatal("islands+objectives spec accepted")
	}
	bad = paretoSpec(seedPareto + 11)
	bad.Objectives = "fitness+unobtainium"
	if _, err := c.Submit(ctx, bad); err == nil {
		t.Fatal("unknown objective accepted")
	}
	bad = paretoSpec(seedPareto + 12)
	bad.Objectives = "fitness"
	if _, err := c.Submit(ctx, bad); err == nil {
		t.Fatal("single-objective vector accepted")
	}
}

// TestClusterParetoDispatch: a coordinator routes a Pareto job to its
// ring owner like any other job, front records flow back through the
// dedup proxy, and a resubmission is answered from the coordinator's
// own cache without touching the fleet, with the same best fitness.
// The spec's last generation (max fitness 73) is not its best (86), so
// a best taken from the last generation alone would differ from the
// one the proxy derives from the forwarded records.
func TestClusterParetoDispatch(t *testing.T) {
	experiments.ResetCaches()
	t.Cleanup(experiments.ResetCaches)
	w1 := startFleetWorker(t, t.TempDir())
	_, disp, c, _, _ := startCoordinator(t, w1)
	ctx := context.Background()

	spec := paretoSpec(seedPareto + 22)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	first, stream := collectStream(t, c, st.ID)
	if first.State != StateDone {
		t.Fatalf("pareto job finished %s: %s", first.State, first.Error)
	}
	if got := disp.Counters().Snapshot().Int("dispatched"); got != 1 {
		t.Fatalf("dispatched = %d, want 1", got)
	}
	fronts := 0
	for _, ln := range stream {
		if strings.Contains(ln, "#front") {
			fronts++
		}
	}
	if fronts == 0 {
		t.Fatal("coordinator stream carries no front records")
	}
	// The job's generation count is its history length wherever it ran:
	// front records are not generations.
	hist := len(stream) - fronts
	if first.Generations != hist {
		t.Fatalf("generations = %d, want the %d history records", first.Generations, hist)
	}
	var last hwsim.Record
	if err := json.Unmarshal([]byte(stream[hist-1]), &last); err != nil {
		t.Fatal(err)
	}
	if mf := last.Report.Float("max_fitness"); mf >= first.BestFitness {
		t.Fatalf("last generation's max fitness %v is the best %v; the case needs one below it", mf, first.BestFitness)
	}

	st2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	second, replay := collectStream(t, c, st2.ID)
	if second.State != StateDone || !second.Shared {
		t.Fatalf("second job: state=%s shared=%v", second.State, second.Shared)
	}
	snap := disp.Counters().Snapshot()
	if got := snap.Int("dispatched"); got != 1 {
		t.Fatalf("dispatched = %d after proxy hit, want still 1", got)
	}
	if got := snap.Int("proxied_store_hits"); got < 1 {
		t.Fatalf("proxied_store_hits = %d, want >= 1", got)
	}
	if len(replay) != len(stream) {
		t.Fatalf("proxied replay streamed %d records, original %d", len(replay), len(stream))
	}
	for i := range stream {
		if stream[i] != replay[i] {
			t.Fatalf("record %d differs between dispatch and proxy replay", i)
		}
	}
	if second.BestFitness != first.BestFitness {
		t.Fatalf("best fitness %v dispatched, %v proxied", first.BestFitness, second.BestFitness)
	}
}

// findChild walks a counter report tree for a child by name.
func findChild(r hwsim.Report, name string) (hwsim.Report, bool) {
	if r.Name == name {
		return r, true
	}
	for _, ch := range r.Children {
		if found, ok := findChild(ch, name); ok {
			return found, true
		}
	}
	return hwsim.Report{}, false
}

// TestClusterParetoLocalFallbackPhases: with no live workers the
// coordinator computes a job of any kind in-process — and its /metrics
// tree carries the per-phase wall-clock counters, the accounting the
// Dispatcher path previously lacked.
func TestClusterParetoLocalFallbackPhases(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"scalar", Spec{Workload: "cartpole", Population: 16, Generations: 3, Seed: seedPareto + 31}},
		{"pareto", paretoSpec(seedPareto + 30)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			experiments.ResetCaches()
			t.Cleanup(experiments.ResetCaches)
			members := cluster.NewMembership(cluster.MembershipConfig{})
			disp := &Dispatcher{Members: members}
			sched := NewScheduler(Config{MaxRunning: 1, Executor: disp})
			t.Cleanup(func() { sched.Drain(2 * time.Second) })

			j, err := sched.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-j.Done():
			case <-time.After(60 * time.Second):
				t.Fatal("local-fallback job did not finish")
			}
			if j.State() != StateDone {
				t.Fatalf("job finished %s: %s", j.State(), j.Status().Error)
			}
			if got := disp.Counters().Snapshot().Int("local"); got != 1 {
				t.Fatalf("local = %d, want 1", got)
			}
			phases, ok := findChild(sched.Counters().Snapshot(), "phases")
			if !ok {
				t.Fatal("coordinator /metrics tree has no phases node")
			}
			for _, name := range []string{"generations", "evaluate_ns", "speciate_ns", "reproduce_ns"} {
				if phases.Ints[name] <= 0 {
					t.Fatalf("phase counter %s = %d, want > 0 (%+v)", name, phases.Ints[name], phases.Ints)
				}
			}
		})
	}
}

// TestRebalanceQueuedJobOnJoin is the satellite acceptance test: a job
// queued behind a busy worker is re-routed when a new worker joins and
// the consistent-hash ring says the key now belongs to it. The old
// worker stays alive and unblamed; the new worker runs the job.
func TestRebalanceQueuedJobOnJoin(t *testing.T) {
	experiments.ResetCaches()
	t.Cleanup(experiments.ResetCaches)
	w1 := startFleetWorker(t, t.TempDir())
	w2 := startFleetWorker(t, t.TempDir())

	// Coordinator with the membership-change hook wired the way
	// genesysd wires it: any join/death/revival triggers a rebalance
	// pass. Only w1 joins up front.
	disp := &Dispatcher{}
	members := cluster.NewMembership(cluster.MembershipConfig{OnChange: disp.Rebalance})
	disp.Members = members
	members.Join(w1.addr)
	sched := NewScheduler(Config{MaxRunning: 4, Executor: disp})
	server := NewServer(sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: server}
	go srv.Serve(ln)
	c := &Client{Base: "http://" + ln.Addr().String(), Name: "test"}
	t.Cleanup(func() {
		sched.Drain(2 * time.Second)
		srv.Close()
	})
	ctx := context.Background()

	// Occupy both of w1's slots with slow jobs so the target queues.
	b1, err := c.Submit(ctx, slowSpec(seedPareto+40, 1000))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Submit(ctx, slowSpec(seedPareto+41, 1000))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "blockers running on w1", func() bool {
		running := 0
		for _, j := range w1.sched.Jobs() {
			if j.State() == StateRunning {
				running++
			}
		}
		return running == 2
	})

	// Pick a target whose key the ring re-assigns to w2 once it joins
	// (checked on a scratch ring with both members).
	scratch := cluster.NewMembership(cluster.MembershipConfig{})
	scratch.Join(w1.addr)
	scratch.Join(w2.addr)
	var target Spec
	found := false
	for s := uint64(seedPareto + 50); s < seedPareto+250; s++ {
		cand := Spec{Workload: "cartpole", Population: 16, Generations: 2, Seed: s}.withDefaults()
		if owner, ok := scratch.Owner(cand.key().String()); ok && owner.ID == w2.id {
			target, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no candidate key maps to w2")
	}

	st, err := c.Submit(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	// The target lands on w1 (the only live worker) and queues behind
	// the blockers.
	waitFor(t, 30*time.Second, "target queued on w1", func() bool {
		for _, j := range w1.sched.Jobs() {
			if j.Spec.Seed == target.Seed && j.State() == StateQueued {
				return true
			}
		}
		return false
	})

	// The join fires OnChange → Rebalance synchronously: the queued
	// remote job is cancelled and re-dispatched to w2.
	members.Join(w2.addr)

	defer func() {
		if t.Failed() {
			snap, _ := json.Marshal(disp.Counters().Snapshot())
			t.Logf("disp counters: %s", snap)
			for _, j := range w1.sched.Jobs() {
				t.Logf("w1 job %s seed=%d state=%s err=%q", j.ID, j.Spec.Seed, j.State(), j.Status().Error)
			}
			for _, j := range w2.sched.Jobs() {
				t.Logf("w2 job %s seed=%d state=%s err=%q", j.ID, j.Spec.Seed, j.State(), j.Status().Error)
			}
			cj, _ := c.Job(ctx, st.ID)
			t.Logf("coordinator job: %+v", cj)
		}
	}()
	final := waitStatus(t, c, st.ID, 60*time.Second, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("rebalanced job finished %s: %s", final.State, final.Error)
	}
	snap := disp.Counters().Snapshot()
	if got := snap.Int("rebalanced"); got < 1 {
		t.Fatalf("rebalanced = %d, want >= 1", got)
	}
	if got := snap.Int("redispatched"); got != 0 {
		t.Fatalf("redispatched = %d, want 0 (no worker failed)", got)
	}
	if live := members.Live(); len(live) != 2 {
		t.Fatalf("live members = %d, want 2 (w1 must not be blamed)", len(live))
	}
	ranOnW2 := false
	for _, j := range w2.sched.Jobs() {
		if j.Spec.Seed == target.Seed && j.State() == StateDone {
			ranOnW2 = true
		}
	}
	if !ranOnW2 {
		t.Fatal("target did not complete on the new owner")
	}
	for _, id := range []string{b1.ID, b2.ID} {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}
