package cluster

import (
	"context"
	"encoding/json"
	"net/http"
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
