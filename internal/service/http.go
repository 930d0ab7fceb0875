package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fragalloc/internal/model"
)

// Handler returns the daemon's HTTP API:
//
//	GET  /v1/allocation    the served incumbent, tagged with role + staleness
//	POST /v1/update        ingest a drift update; ?wait=1 blocks for the
//	                       re-optimization attempt and returns the diff.
//	                       Followers redirect to the leader (307); admission
//	                       refusals are 429 with Retry-After.
//	GET  /v1/diff          migration plan of the latest adoption
//	GET  /v1/status        full self-description
//	GET  /healthz          liveness (200 while the process runs)
//	GET  /readyz           readiness (200 once this replica can serve reads)
//
// The allocation endpoint never fails once an incumbent exists: when
// re-optimization is failing, it keeps serving the last good incumbent with
// stale_updates > 0 and the rejection reason — graceful degradation as an
// API contract. Followers serve it too, tagged role:follower with tail
// staleness, so reads survive a leader outage.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/allocation", s.handleAllocation)
	mux.HandleFunc("POST /v1/update", s.handleUpdate)
	mux.HandleFunc("GET /v1/diff", s.handleDiff)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// allocationResponse is the GET /v1/allocation body.
type allocationResponse struct {
	Epoch          uint64 `json:"epoch"`
	IncumbentEpoch uint64 `json:"incumbent_epoch"`
	// StaleUpdates counts accepted updates the allocation does not yet
	// reflect; Age is how long the incumbent has been serving.
	StaleUpdates uint64        `json:"stale_updates"`
	Age          time.Duration `json:"age_ns"`
	Outcome      string        `json:"outcome"`

	W                 float64 `json:"w"`
	V                 float64 `json:"v"`
	ReplicationFactor float64 `json:"replication_factor"`
	Exact             bool    `json:"exact"`

	// Role tags which replica answered; followers add the leader they would
	// redirect writes to and how stale their journal tail is.
	Role       Role          `json:"role"`
	LeaderAddr string        `json:"leader_addr,omitempty"`
	TailAge    time.Duration `json:"tail_age_ns,omitempty"`

	LastError  string            `json:"last_error,omitempty"`
	Allocation *model.Allocation `json:"allocation"`
}

func (s *Service) handleAllocation(w http.ResponseWriter, r *http.Request) {
	v, _ := s.snapshot()
	if v.Inc == nil {
		http.Error(w, "no incumbent allocation yet", http.StatusServiceUnavailable)
		return
	}
	s.writeJSON(w, http.StatusOK, allocationResponse{
		Epoch:             v.Epoch,
		IncumbentEpoch:    v.IncumbentEpoch,
		StaleUpdates:      v.StaleUpdates,
		Age:               v.Age,
		Outcome:           v.Outcome,
		W:                 v.W,
		V:                 v.V,
		ReplicationFactor: v.ReplicationFactor,
		Exact:             v.Exact,
		Role:              v.Role,
		LeaderAddr:        v.LeaderAddr,
		TailAge:           v.TailAge,
		LastError:         v.LastError,
		Allocation:        v.Inc.Allocation,
	})
}

// updateResponse is the POST /v1/update body. Without ?wait=1 only Epoch is
// set (202 Accepted); with it, Adopted reports whether the re-optimization
// attempt for this epoch succeeded, and Diff carries the migration plan when
// it did.
type updateResponse struct {
	Epoch     uint64 `json:"epoch"`
	Adopted   bool   `json:"adopted,omitempty"`
	Outcome   string `json:"outcome,omitempty"`
	Diff      *Diff  `json:"diff,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

func (s *Service) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var u Update
	if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
		http.Error(w, "bad update: "+err.Error(), http.StatusBadRequest)
		return
	}
	epoch, err := s.Apply(u)
	if err != nil {
		var notLeader *NotLeaderError
		var overloaded *OverloadedError
		switch {
		case errors.As(err, &notLeader):
			if notLeader.Leader == "" {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			// 307 keeps the method and body, so a client that follows the
			// redirect re-POSTs the same update at the leader.
			http.Redirect(w, r, strings.TrimSuffix(notLeader.Leader, "/")+r.URL.RequestURI(), http.StatusTemporaryRedirect)
			return
		case errors.As(err, &overloaded):
			secs := int(math.Ceil(overloaded.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if r.URL.Query().Get("wait") == "" {
		s.writeJSON(w, http.StatusAccepted, updateResponse{Epoch: epoch})
		return
	}
	v, adopted, err := s.waitEpoch(r.Context(), epoch)
	if err != nil {
		// The update is accepted and journaled; only the wait was cut
		// short by the client going away.
		http.Error(w, "wait canceled: "+err.Error(), http.StatusRequestTimeout)
		return
	}
	// The view that ended the wait answers the whole response.
	resp := updateResponse{Epoch: epoch, Adopted: adopted, Outcome: v.Outcome, LastError: v.LastError}
	if d := v.LastDiff; adopted && d != nil && d.ToEpoch >= epoch {
		resp.Diff = d
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleDiff(w http.ResponseWriter, r *http.Request) {
	d := s.Diff()
	if d == nil {
		http.Error(w, "no re-optimization has completed yet", http.StatusNotFound)
		return
	}
	s.writeJSON(w, http.StatusOK, d)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Status())
}

// handleHealthz is pure liveness: 200 whenever the process is up, even
// mid-bootstrap or as a candidate between reigns. Orchestrators restart on
// healthz failure; restarting a replica because it is still electing or
// tailing would be self-inflicted crash-looping — readiness is /readyz.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyResponse is the GET /readyz body.
type readyResponse struct {
	Ready bool `json:"ready"`
	Role  Role `json:"role"`
	// Reason says why the replica is not ready ("" when it is).
	Reason     string `json:"reason,omitempty"`
	LeaderAddr string `json:"leader_addr,omitempty"`
	// Followers report their replication staleness: the journal generation
	// last tailed and how long ago.
	TailGeneration uint64        `json:"tail_generation,omitempty"`
	TailAge        time.Duration `json:"tail_age_ns,omitempty"`
}

// handleReadyz is role-aware readiness: a single-node daemon or leader is
// ready once it serves an incumbent; a follower once its tailed (or
// restored) warm incumbent can answer reads; a candidate — a replica between
// reigns — is never ready.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	v, _ := s.snapshot()
	resp := readyResponse{
		Role:           v.Role,
		LeaderAddr:     v.LeaderAddr,
		TailGeneration: v.TailGeneration,
		TailAge:        v.TailAge,
	}
	code := http.StatusServiceUnavailable
	switch {
	case v.Role == RoleCandidate:
		resp.Reason = "between reigns: electing or awaiting a leader"
	case v.Inc == nil:
		resp.Reason = "no incumbent allocation yet"
	default:
		resp.Ready, code = true, http.StatusOK
	}
	s.writeJSON(w, code, resp)
}

func (s *Service) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logf("service: writing response: %v", err)
	}
}
