package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/evolve"
)

// TestWorkerOpenIgnoresStaleBatchWidth pins mixed-version fleets:
// coordinators built before the lane-width option was removed still
// send "BatchWidth" inside the /island/open spec. The worker must open
// that session, and stepping it must return the same champions as a
// session opened with the same spec without the field.
func TestWorkerOpenIgnoresStaleBatchWidth(t *testing.T) {
	mux := http.NewServeMux()
	NewWorkerAPI().Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// The body such a coordinator encodes: every IslandSpec field in
	// declaration order, BatchWidth included.
	stale := `{"session":"stale","spec":{"Workload":"cartpole","Population":16,"Generations":2,` +
		`"Islands":2,"MigrationEvery":1,"Seed":5,"Parallelism":0,"BatchWidth":4},"islands":[0,1]}`
	resp, err := http.Post(ts.URL+"/island/open", "application/json", strings.NewReader(stale))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open with stale BatchWidth: %s", resp.Status)
	}

	c := &IslandClient{Base: ts.URL}
	ctx := context.Background()
	spec := evolve.IslandSpec{Workload: "cartpole", Population: 16, Generations: 2, Islands: 2, MigrationEvery: 1, Seed: 5}
	if err := c.Open(ctx, "current", spec, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	want, _, err := c.Step(ctx, "current", spec.Generations, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Step(ctx, "stale", spec.Generations, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != spec.Islands {
		t.Fatalf("%d champions, want %d", len(want), spec.Islands)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stale-spec session champions diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestWorkerStepStatusCodes pins /island/step's status codes: 404 for
// an unknown session and 400 for a plan whose migrants do not inject.
func TestWorkerStepStatusCodes(t *testing.T) {
	mux := http.NewServeMux()
	NewWorkerAPI().Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &IslandClient{Base: ts.URL}
	ctx := context.Background()
	spec := evolve.IslandSpec{Workload: "cartpole", Population: 16, Generations: 2, Islands: 2, MigrationEvery: 1, Seed: 5}
	if err := c.Open(ctx, "s", spec, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Step(ctx, "nope", 1, nil); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown session: %v, want 404", err)
	}
	champs, _, err := c.Step(ctx, "s", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	partial := map[int]evolve.Champion{1: champs[0]} // no migrant for island 0
	if _, _, err := c.Step(ctx, "s", 2, partial); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("plan missing a migrant: %v, want 400", err)
	}
}
