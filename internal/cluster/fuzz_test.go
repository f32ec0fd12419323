package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/evolve"
)

// FuzzIslandStep posts arbitrary /island/step bodies to a worker that
// holds one small open session. The handler never panics, answers only
// 200, 400 or 404, and no 200 leaves an island past the session's
// generation budget.
func FuzzIslandStep(f *testing.F) {
	_, g := openSession(f)
	champs, _, err := g.Step(context.Background(), 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range []islandStepReq{
		{Session: "s", Target: 2, Plan: map[int]evolve.Champion{0: champs[1], 1: champs[0]}},
		{Session: "s", Target: 2, Plan: map[int]evolve.Champion{1: champs[0]}},
		{Session: "s", Target: stepSpec.Generations + 1},
		{Session: "other", Target: 1},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"session":"s","target":2,"plan":{"0":` + jsonChampion + `}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		h, g := openSession(t)
		rr := postStep(h, string(body))
		switch rr.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
		if rr.Code != http.StatusOK {
			return
		}
		for k, r := range g.Runners {
			if r.Pop.Generation > stepSpec.Generations || len(r.History) > stepSpec.Generations {
				t.Fatalf("island %d at generation %d with %d records, budget %d",
					g.Islands[k], r.Pop.Generation, len(r.History), stepSpec.Generations)
			}
		}
	})
}

// FuzzIslandSession posts arbitrary bodies to /island/result and
// /island/close (the flag picks which) of a worker that holds one small
// open session. Each answers only 200, 400 or 404; /island/result
// leaves the session open, and a 200 from /island/close removes exactly
// the session the body names: the open one when it is named, none
// otherwise.
func FuzzIslandSession(f *testing.F) {
	for _, body := range []string{
		`{"session":"s"}`, `{"session":"other"}`, `{"session":""}`, `{"Session":"s"}`,
		`{"session":7}`, `{"session":"s"} trailing`, `{"session":"s","session":"t"}`, `{`, ``,
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	f.Fuzz(func(t *testing.T, close bool, body []byte) {
		w, h, g := openWorker(t)
		path := "/island/result"
		if close {
			path = "/island/close"
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rr.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("%s: status %d: %s", path, rr.Code, rr.Body)
		}
		want := map[string]*evolve.IslandGroup{"s": g}
		if close && rr.Code == http.StatusOK {
			var req sessionReq
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			delete(want, req.Session)
		}
		if len(w.sessions) != len(want) || (len(want) == 1 && w.sessions["s"] != g) {
			t.Fatalf("%s answered %d; sessions %v, want %v", path, rr.Code, w.sessions, want)
		}
	})
}

// FuzzIslandOpen posts arbitrary bodies to /island/open on an empty
// worker. It answers only 200 or 400, and a 200 leaves one session,
// under the body's id, with one runner per listed island. The endpoint
// builds every listed island's population at once, up to
// neat.MaxPopulationSize genomes, the bound POST /jobs admits too; the
// fuzz target skips a body whose population decodes above 64 to keep
// each run small. That bounds the fuzzer's cost; it hides no defect.
func FuzzIslandOpen(f *testing.F) {
	for _, req := range []islandOpenReq{
		{Session: "s", Spec: stepSpec, Islands: []int{0, 1}},
		{Session: "s", Spec: stepSpec, Islands: []int{1}},
		{Session: "s", Spec: stepSpec, Islands: []int{1, 1}},
		{Session: "s", Spec: stepSpec, Islands: []int{2}},
		{Session: "s", Spec: stepSpec},
		{Session: "", Spec: stepSpec, Islands: []int{0}},
		{Session: "s", Spec: evolve.IslandSpec{Workload: "alien-ram", Population: 4, Generations: 1, Islands: 2, MigrationEvery: 1}, Islands: []int{0}},
		{Session: "s", Spec: evolve.IslandSpec{Workload: "cartpole", Population: 9, Generations: 1, Islands: 2, MigrationEvery: 1}, Islands: []int{0}},
		{Session: "s", Spec: evolve.IslandSpec{Workload: "cartpole", Population: 8, Generations: -1, Islands: 2, MigrationEvery: 1}, Islands: []int{0}},
		{Session: "s", Spec: evolve.IslandSpec{Workload: "no-such-env", Population: 8, Generations: 1, Islands: 2, MigrationEvery: 1}, Islands: []int{0}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"session":"s","spec":{"Workload":"cartpole","Population":4611686018427387904,"Islands":2},"islands":[0]}`))
	f.Add([]byte(`{"session":"s","spec":`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req islandOpenReq
		decodeErr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		if decodeErr == nil && req.Spec.Population > 64 {
			t.Skip("population above the fuzzer's cost bound")
		}
		w := NewWorkerAPI()
		mux := http.NewServeMux()
		w.Routes(mux)
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/island/open", bytes.NewReader(body)))
		switch rr.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			if len(w.sessions) != 0 {
				t.Fatalf("400 left sessions %v", w.sessions)
			}
			return
		default:
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
		if decodeErr != nil {
			t.Fatalf("200 for a body that does not decode: %v", decodeErr)
		}
		g, ok := w.sessions[req.Session]
		if len(w.sessions) != 1 || !ok || len(g.Runners) != len(req.Islands) {
			t.Fatalf("200 left sessions %v; want one under %q with %d runners", w.sessions, req.Session, len(req.Islands))
		}
	})
}
