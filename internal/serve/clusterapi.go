package serve

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/cluster"
)

// This file is the HTTP face of cluster mode, layered onto the
// ordinary Server so coordinators and workers keep the whole
// single-process surface:
//
//	POST /cluster/join  {"addr": "http://host:port"}  register a worker
//	GET  /cluster       membership + ring status
//
// plus, on workers, the island session protocol (cluster.WorkerAPI).

// ClusterStatus is GET /cluster's payload.
type ClusterStatus struct {
	Members    []cluster.MemberStatus `json:"members"`
	RingPoints int                    `json:"ring_points"`
}

// EnableCluster mounts the coordinator's cluster admin surface over a
// membership registry. Call before serving traffic.
func (s *Server) EnableCluster(m *cluster.Membership) {
	s.mux.HandleFunc("POST /cluster/join", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Addr string `json:"addr"`
		}
		if code, err := readJSON(w, r, &req); err != nil || req.Addr == "" {
			writeJSON(w, code, errorBody{Error: "join: body must be {\"addr\": \"http://host:port\"}"})
			return
		}
		writeJSON(w, http.StatusOK, m.Join(req.Addr))
	})
	s.mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		members, points := m.Status()
		if members == nil {
			members = []cluster.MemberStatus{}
		}
		writeJSON(w, http.StatusOK, ClusterStatus{Members: members, RingPoints: points})
	})
}

// EnableWorker mounts the island session protocol — what makes this
// daemon dispatchable as a fleet worker.
func (s *Server) EnableWorker(api *cluster.WorkerAPI) {
	api.Routes(s.mux)
}

// ClusterJoin registers a worker address with a coordinator — the
// call a worker retries at boot until the coordinator is reachable.
func (c *Client) ClusterJoin(ctx context.Context, workerAddr string) (cluster.Member, error) {
	mem, err := call[cluster.Member](ctx, c, http.MethodPost, "/cluster/join", struct {
		Addr string `json:"addr"`
	}{Addr: workerAddr}, http.StatusOK)
	if err != nil {
		return mem, fmt.Errorf("cluster join: %w", err)
	}
	return mem, nil
}

// Cluster fetches a coordinator's membership status.
func (c *Client) Cluster(ctx context.Context) (ClusterStatus, error) {
	return call[ClusterStatus](ctx, c, http.MethodGet, "/cluster", nil, http.StatusOK)
}
