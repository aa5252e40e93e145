package serve

import (
	"errors"
	"fmt"
	"net/http"

	"costream/internal/controlplane"
	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// Control-plane surface: deployment CRUD, host cordon/drain state and
// the manually triggered control tick. Registry mutations run outside
// the in-flight semaphore — the plane has its own lock and its searches
// are budgeted, so admission control for the prediction hot path does
// not interleave with control decisions.

// DeployRequest registers one query for continuous placement control.
// Query/cluster/placement use the /v1/predict shapes, so a /v1/example
// body plus an id deploys directly. A present placement is adopted
// as-is (validated, priced, no search); an absent one is searched fresh
// under the control plane's policy.
type DeployRequest struct {
	ID        string            `json:"id,omitempty"`
	Query     *stream.Query     `json:"query"`
	Cluster   *hardware.Cluster `json:"cluster"`
	Placement sim.Placement     `json:"placement,omitempty"`
}

// HostRequest names one host for cordon/uncordon/drain. Host IDs may
// contain path separators (e.g. "edge-a/host-001"), so the host rides
// in the body rather than the URL path.
type HostRequest struct {
	Host string `json:"host"`
}

// handleDeployCreate answers 200 with the new deployment's status, 400
// for a body or deployment the plane rejects, 409 for an id already
// registered, 413 for a body past the size limit and 503 when the request
// was cancelled.
func (s *Server) handleDeployCreate(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody(s, w, r, readDeploy)
	if !ok {
		return
	}
	a, cluster, err := validatePair(req.Query, req.Cluster)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := req.ID
	if id == "" {
		id = s.nextDeploymentID()
	}
	st, err := s.plane.Deploy(r.Context(), id, a, cluster, req.Placement)
	if err != nil {
		var dup *controlplane.DuplicateError
		if errors.As(err, &dup) {
			s.writeError(w, http.StatusConflict, "%v", err)
			return
		}
		if r.Context().Err() != nil {
			s.writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDeployList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"deployments": s.plane.List()})
}

func (s *Server) handleDeployGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.plane.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no deployment %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDeployDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.plane.Evict(id) {
		s.writeError(w, http.StatusNotFound, "no deployment %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"evicted": id})
}

func (s *Server) handleHosts(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"hosts": s.plane.Hosts()})
}

func (s *Server) decodeHost(w http.ResponseWriter, r *http.Request) (string, bool) {
	req, ok := decodeBody(s, w, r, readHost)
	if !ok {
		return "", false
	}
	if req.Host == "" {
		s.writeError(w, http.StatusBadRequest, `"host" is required`)
		return "", false
	}
	return req.Host, true
}

// handleHostCordon answers 200, or 400 or 413 for a bad body.
func (s *Server) handleHostCordon(w http.ResponseWriter, r *http.Request) {
	host, ok := s.decodeHost(w, r)
	if !ok {
		return
	}
	changed := s.plane.Cordon(host)
	s.writeJSON(w, http.StatusOK, map[string]any{"host": host, "cordoned": true, "changed": changed})
}

// handleHostUncordon answers 200, or 400 or 413 for a bad body.
func (s *Server) handleHostUncordon(w http.ResponseWriter, r *http.Request) {
	host, ok := s.decodeHost(w, r)
	if !ok {
		return
	}
	changed := s.plane.Uncordon(host)
	s.writeJSON(w, http.StatusOK, map[string]any{"host": host, "cordoned": false, "changed": changed})
}

// handleHostDrain answers 200 with the deployments it healed, 400 or 413
// for a bad body, 503 when the request was cancelled mid-drain, like a
// cancelled tick or deploy, and 500 when a heal itself failed.
func (s *Server) handleHostDrain(w http.ResponseWriter, r *http.Request) {
	host, ok := s.decodeHost(w, r)
	if !ok {
		return
	}
	healed, err := s.plane.Drain(r.Context(), host)
	if err != nil {
		status, what := http.StatusInternalServerError, "drain"
		if r.Context().Err() != nil {
			status, what = http.StatusServiceUnavailable, "request cancelled: drain"
		}
		s.writeError(w, status, "%s %s: %v", what, host, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"host": host, "cordoned": true, "healed": healed})
}

// handleControlTick answers 200 with the tick's report, 503 when the
// request was cancelled mid-tick and 500 when a heal itself failed (the
// tick still committed every other deployment's decision).
func (s *Server) handleControlTick(w http.ResponseWriter, r *http.Request) {
	rep, err := s.plane.Tick(r.Context())
	if err != nil {
		status, what := http.StatusInternalServerError, "control tick"
		if r.Context().Err() != nil {
			status, what = http.StatusServiceUnavailable, "request cancelled: control tick"
		}
		s.writeError(w, status, "%s: %v", what, err)
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

// nextDeploymentID generates a fresh id for DeployRequests without one.
func (s *Server) nextDeploymentID() string {
	for {
		id := fmt.Sprintf("dep-%03d", s.deploySeq.Add(1))
		if _, ok := s.plane.Get(id); !ok {
			return id
		}
	}
}
