package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/evolve"
	"repro/internal/gene"
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

// TestWorkerOpenPopulationBounded: an /island/open spec whose
// population is past neat.MaxPopulationSize is refused with 400 before
// any island is built. A population of 1<<62 once reached
// neat.NewPopulation, whose allocation panicked the handler.
func TestWorkerOpenPopulationBounded(t *testing.T) {
	mux := http.NewServeMux()
	NewWorkerAPI().Routes(mux)
	body := `{"session":"big","spec":{"Workload":"cartpole","Population":4611686018427387904,` +
		`"Generations":2,"Islands":2,"MigrationEvery":1,"Seed":5},"islands":[0,1]}`
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/island/open", strings.NewReader(body)))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("open with population 1<<62: status %d, want 400 (%s)", rr.Code, rr.Body)
	}
}

// TestWorkerOpenGenerationsBounded: /island/open refuses a session
// whose generation budget is past the bound, before any island is
// built.
func TestWorkerOpenGenerationsBounded(t *testing.T) {
	mux := http.NewServeMux()
	NewWorkerAPI().Routes(mux)
	body := `{"session":"long","spec":{"Workload":"cartpole","Population":8,` +
		`"Generations":4611686018427387904,"Islands":2,"MigrationEvery":1,"Seed":5},"islands":[0,1]}`
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/island/open", strings.NewReader(body)))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("open with generations 1<<62: status %d, want 400 (%s)", rr.Code, rr.Body)
	}
}

// jsonChampion is a cartpole champion as builds before the binary
// genome record put it on the wire: a JSON genome object.
const jsonChampion = `{"island":1,"fitness":9.333333333333334,"genome":{"id":5,"fitness":9.333333333333334,"nodes":[` +
	`{"id":0,"type":"input","bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"},` +
	`{"id":1,"type":"input","bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"},` +
	`{"id":2,"type":"input","bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"},` +
	`{"id":3,"type":"input","bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"},` +
	`{"id":4,"type":"output","bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"}],"conns":[` +
	`{"src":0,"dst":4,"weight":0,"enabled":true},{"src":1,"dst":4,"weight":0,"enabled":true},` +
	`{"src":2,"dst":4,"weight":0,"enabled":true},{"src":3,"dst":4,"weight":0,"enabled":true}]}}`

// stepSpec is the small session the step tests and FuzzIslandStep open.
var stepSpec = evolve.IslandSpec{Workload: "cartpole", Population: 8, Generations: 2, Islands: 2, MigrationEvery: 1, Seed: 5}

// openSession returns a worker's routes with session "s" open on every
// island of stepSpec, and the session's group.
func openSession(tb testing.TB) (http.Handler, *evolve.IslandGroup) {
	tb.Helper()
	w := NewWorkerAPI()
	g, err := evolve.NewIslandGroup(stepSpec, []int{0, 1})
	if err != nil {
		tb.Fatal(err)
	}
	w.sessions["s"] = g
	mux := http.NewServeMux()
	w.Routes(mux)
	return mux, g
}

// postStep serves one /island/step body.
func postStep(h http.Handler, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/island/step", strings.NewReader(body)))
	return rr
}

// populations returns every island's population document, the whole
// state a step request could change.
func populations(tb testing.TB, g *evolve.IslandGroup) [][]byte {
	tb.Helper()
	var docs [][]byte
	for _, r := range g.Runners {
		doc, err := r.Pop.Save()
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, doc)
	}
	return docs
}

// TestWorkerStepRejectsBadRequests: a target outside the session's
// budget, a plan in the earlier wire form (JSON genome objects where
// records go) and a migrant that cannot be evaluated on the workload
// (no output node, or a cycle) each get 400 and leave the session's
// islands as they were, also when the other island's migrant is sound.
func TestWorkerStepRejectsBadRequests(t *testing.T) {
	h, g := openSession(t)
	if rr := postStep(h, `{"session":"s","target":1}`); rr.Code != http.StatusOK {
		t.Fatalf("step to 1: %d %s", rr.Code, rr.Body)
	}
	champs, _, err := g.Step(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// plan sends champs[1] to island 0 and an edited champs[0] to
	// island 1.
	plan := func(edit func(m *gene.Genome)) string {
		m, err := gene.DecodeRecord(champs[0].Genome)
		if err != nil {
			t.Fatal(err)
		}
		edit(m)
		rec, err := m.AppendRecord(nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(islandStepReq{Session: "s", Target: 2,
			Plan: map[int]evolve.Champion{0: champs[1], 1: {Island: 0, Genome: rec}}})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	want := populations(t, g)
	for name, body := range map[string]string{
		"target 0":           `{"session":"s","target":0}`,
		"target -1":          `{"session":"s","target":-1}`,
		"target past budget": fmt.Sprintf(`{"session":"s","target":%d}`, stepSpec.Generations+1),
		"JSON genome plan": `{"session":"s","target":2,"plan":{"0":` + jsonChampion + `,"1":` +
			strings.Replace(jsonChampion, `"island":1`, `"island":0`, 1) + `}}`,
		"migrant with no output": plan(func(m *gene.Genome) {
			for i := range m.Nodes {
				if m.Nodes[i].Type == gene.Output {
					m.Nodes[i].Type = gene.Hidden
				}
			}
		}),
		"migrant with a cycle": plan(func(m *gene.Genome) {
			out := m.OutputIDs()[0]
			m.PutNode(gene.NewNode(1000, gene.Hidden))
			m.PutConn(gene.NewConn(out, 1000, 1))
			m.PutConn(gene.NewConn(1000, out, 1))
		}),
	} {
		if rr := postStep(h, body); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, rr.Code, rr.Body)
		}
		if got := populations(t, g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the session's islands changed", name)
		}
	}
}
