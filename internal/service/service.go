// Package service is the allocation daemon's core: it holds the incumbent
// allocation in memory, ingests workload-drift updates, and re-optimizes
// incrementally — warm-starting the solver from the incumbent and emitting a
// migration diff per adoption (DESIGN.md §3.11).
//
// Robustness is the architecture, not an afterthought:
//
//   - Single-flight re-optimization: updates coalesce into one desired epoch;
//     at most one solve runs at a time and always targets the latest state.
//   - Graceful degradation: a failed, timed-out, or degraded solve is
//     rejected and the last good incumbent keeps serving, tagged with its
//     staleness (epochs behind) and outcome; retries back off exponentially.
//   - Durability: the incumbent and desired state are journaled through
//     internal/checkpoint, so a crashed daemon boots straight into its last
//     served state, and the in-flight solve's own journal lets the
//     interrupted re-optimization resume instead of restarting.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/core"
	"fragalloc/internal/faultinject"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

// Config parameterizes a Service. Workload and K are required; everything
// else has serviceable defaults.
type Config struct {
	// Workload is the fixed fragment/query universe the daemon allocates.
	// Drift changes frequencies and scenarios, never the universe — a new
	// universe is a new daemon (the journal is digest-bound to it).
	Workload *model.Workload
	// Scenarios seeds the in-sample scenario set; nil means the
	// deterministic single-scenario set.
	Scenarios *model.ScenarioSet
	// K is the initial number of replica nodes.
	K int

	// Solver knobs, passed through to core.Allocate.
	Chunks       *core.ChunkSpec
	FixedQueries int
	Parallelism  int
	MIP          mip.Options

	// ReduceTo, when > 0, clusters the desired scenario set down to at most
	// this many weighted representatives (k-medoids, DESIGN.md §3.12) and
	// solves over those instead of the full set: the solve cost is bounded
	// by R while the set keeps growing with every observed scenario. Newly
	// observed scenarios fold into their nearest cluster between solves; a
	// full re-clustering runs only when the accumulated drift trips
	// ReclusterThreshold. The full set stays the desired state and is what
	// the journal persists — the reduction is derived and rebuilt
	// deterministically at boot.
	ReduceTo int
	// ReclusterThreshold triggers a re-clustering once the weight folded or
	// drifted since the last clustering exceeds this fraction of the set
	// size the clustering was built from (default 0.25).
	ReclusterThreshold float64
	// ReduceSeed seeds the deterministic k-medoids initialization
	// (default 1).
	ReduceSeed int64

	// SolveTimeout bounds each re-optimization attempt (0 = none).
	// BackoffBase and BackoffMax shape the exponential retry backoff after
	// failed attempts (defaults 500ms and 30s).
	SolveTimeout time.Duration
	BackoffBase  time.Duration
	BackoffMax   time.Duration

	// StateDir is the durability root: StateDir/state journals the desired
	// state + incumbent, StateDir/solve/ep-N journals the in-flight solve
	// of epoch N. Empty means memory-only (no crash tolerance).
	StateDir string
	// CheckpointEvery is the minimum interval between mid-MIP checkpoints
	// (0 = the checkpoint package's default).
	CheckpointEvery time.Duration

	// HA, when set, runs this daemon as one replica of a highly available
	// group sharing StateDir: lease-based leader election with fencing
	// epochs, follower journal tailing, and write redirection (DESIGN.md
	// §3.13). Requires StateDir. Use RunHA instead of Bootstrap+Run.
	HA *HAConfig
	// Admission, when set, bounds update ingest: a token bucket on the rate
	// and a cap on the pending-update queue, both rejecting with a 429-able
	// OverloadedError instead of queueing without bound.
	Admission *AdmissionConfig

	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
	// Fault, when set, is installed on the per-epoch solve journals and
	// consulted at the service-loop kill points (crash tests only).
	Fault *faultinject.Injector
}

// Service is the daemon core: the I/O shell around the state machine in
// state.go. Create with New, seed with Bootstrap, then run the
// re-optimization loop with Run while serving reads/updates concurrently.
type Service struct {
	cfg  Config
	st   *checkpoint.Store // state journal; nil when memory-only
	wake chan struct{}     // kicks the Run loop; buffered, coalescing

	// persistMu serializes state-journal writes so concurrent adoptions and
	// ingests cannot interleave half-written generations. Lock order:
	// persistMu before mu, never inverted.
	persistMu sync.Mutex

	// mu guards the three fields below it; only locked takes it.
	mu          sync.Mutex
	state       state
	attemptDone chan struct{} // closed when an attempt finishes; then swapped
	leaseCheck  func() error  // lease fence while leading; also on the store
}

// locked runs f — a transition or read of state.go, plus at most a touch of
// attemptDone or leaseCheck — with s.mu held. f must not block, log or do I/O:
// what a transition obliges comes back as effects, for perform after unlock.
func (s *Service) locked(f func(st *state)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.state)
}

// snapshot is the one read of the state: its view at this instant, and the
// channel that closes when the next attempt finishes.
func (s *Service) snapshot() (v view, done <-chan struct{}) {
	now := time.Now()
	s.locked(func(st *state) { v, done = st.view(now), s.attemptDone })
	return v, done
}

// New validates the config and restores the daemon's state from the journal
// under StateDir, if any. A journal written for a different workload is an
// error, not silently discarded — it means the operator pointed the daemon at
// the wrong state directory.
func New(cfg Config) (*Service, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("service: Config.Workload is required")
	}
	if err := cfg.Workload.Validate(); err != nil {
		return nil, fmt.Errorf("service: workload: %w", err)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("service: K=%d, need at least one node", cfg.K)
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 500 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 30 * time.Second
	}
	if cfg.ReclusterThreshold <= 0 {
		cfg.ReclusterThreshold = 0.25
	}
	if cfg.ReduceSeed == 0 {
		cfg.ReduceSeed = 1
	}
	if cfg.HA != nil {
		ha, err := cfg.HA.withDefaults(&cfg)
		if err != nil {
			return nil, err
		}
		cfg.HA = &ha
	}
	if cfg.Admission != nil {
		adm, err := cfg.Admission.withDefaults()
		if err != nil {
			return nil, err
		}
		cfg.Admission = &adm
	}
	// The ±25% jitter on the solve-retry backoff is deterministic per node:
	// seeded from HA.NodeID, so replicas de-synchronize their retry storms.
	seed := int64(1)
	if cfg.HA != nil {
		h := fnv.New64a()
		h.Write([]byte(cfg.HA.NodeID))
		seed = int64(h.Sum64())
	}
	scen := cfg.Scenarios
	if scen == nil {
		scen = model.DefaultScenario(cfg.Workload)
	}
	if err := scen.Validate(cfg.Workload); err != nil {
		return nil, fmt.Errorf("service: scenarios: %w", err)
	}
	scen = scen.Clone()
	s := &Service{
		cfg:         cfg,
		wake:        make(chan struct{}, 1),
		state:       newState(cfg, scen, seed, time.Now()),
		attemptDone: make(chan struct{}),
	}
	if cfg.StateDir != "" {
		st, err := checkpoint.Open(filepath.Join(cfg.StateDir, "state"))
		if err != nil {
			return nil, err
		}
		s.st = st
		if err := s.reloadState(); err != nil {
			return nil, err
		}
	}
	if v, _ := s.snapshot(); cfg.ReduceTo > 0 && v.ReducedScenarios == 0 {
		// The reduction is derived state, built from the full set rather than
		// journaled: here when the journal supplied no frame (scen is still
		// the desired set), by adoptJournal when it did, and at every
		// re-clustering. The seeded k-medoids init makes the rebuild
		// deterministic; folds since the last clustering are lost in a crash,
		// but the from-scratch rebuild is at least as tight.
		red, err := s.cluster(scen)
		if err != nil {
			return nil, err
		}
		s.locked(func(st *state) { st.setClustering(red, scen.S()) })
	}
	return s, nil
}

// cluster reduces scen by the daemon's fixed clustering recipe; using it for
// the boot build, every installed journal frame and every re-clustering keeps
// reductions reproducible.
func (s *Service) cluster(scen *model.ScenarioSet) (*scenario.Reduction, error) {
	red, err := scenario.Reduce(s.cfg.Workload, scen, scenario.ReduceConfig{R: s.cfg.ReduceTo, Seed: s.cfg.ReduceSeed})
	if err != nil {
		return nil, fmt.Errorf("service: scenario reduction: %w", err)
	}
	return red, nil
}

// persist journals the desired state and incumbent as they are now: each
// write snapshots the latest state, so even when adoptions and ingests race,
// every generation is internally consistent and the journal is monotone.
func (s *Service) persist() error {
	if s.st == nil {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	var ps persistedState
	s.locked(func(st *state) { ps = st.persisted() })
	payload, err := json.Marshal(&ps)
	if err != nil {
		return err
	}
	return s.st.SaveRaw(payload)
}

// perform carries out a transition's effects, in order, with no lock held. It
// stops at, and returns, the one failure that forbids the rest of a list: an
// acknowledging journal write refused by the lease fence — this replica was
// deposed between renewals. After any other journal failure it is still the
// write authority, and its next successful save carries the state.
func (s *Service) perform(effs []effect) error {
	for _, e := range effs {
		switch e.op {
		case effJournal:
			if err := s.persist(); err != nil {
				s.logf("service: warning: journaling %s failed: %v", e.text, err)
				if e.ack && errors.Is(err, checkpoint.ErrLeaseLost) {
					return &NotLeaderError{}
				}
			}
		case effKill:
			s.cfg.Fault.At(e.text)
		case effWake:
			// A pending wake already covers this one (coalescing).
			select {
			case s.wake <- struct{}{}:
			default:
			}
		case effRelease:
			// Swapped under the lock, closed outside it.
			var done chan struct{}
			s.locked(func(*state) { done, s.attemptDone = s.attemptDone, make(chan struct{}) })
			close(done)
		case effRetire:
			if s.cfg.StateDir == "" {
				break
			}
			if err := os.RemoveAll(filepath.Join(s.cfg.StateDir, "solve")); err != nil {
				s.logf("service: warning: could not retire solve journals: %v", err)
			}
		case effLog:
			s.logf(e.text, e.args...)
		}
	}
	return nil
}

// Bootstrap computes and adopts the first incumbent if the journal did not
// provide one. Unlike steady-state re-optimization, bootstrap adopts even a
// degraded allocation — serving something feasible beats serving nothing —
// but a hard solver error (including infeasibility) fails the boot.
func (s *Service) Bootstrap(ctx context.Context) error {
	if inc, _ := s.Incumbent(); inc != nil {
		return nil
	}
	return s.reoptimize(ctx, true)
}

// Run is the single-flight re-optimization loop: wake on ingested updates,
// solve toward the latest desired epoch, back off exponentially on failure.
// It returns when ctx is canceled. Run must not be called concurrently with
// itself.
func (s *Service) Run(ctx context.Context) {
	for {
		if v, _ := s.snapshot(); v.Inc != nil && v.Epoch <= v.Inc.Epoch {
			select {
			case <-ctx.Done():
				return
			case <-s.wake:
			}
			continue
		}
		if err := s.reoptimize(ctx, false); err != nil {
			if ctx.Err() != nil {
				return
			}
			// The wake channel is deliberately not selected here — a burst
			// of updates must not defeat the backoff; the staleness check
			// above picks them up after the sleep.
			var d time.Duration
			s.locked(func(st *state) { d = st.retryDelay() })
			s.logf("service: re-optimization failed (%v); retrying in %v", err, d)
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// reoptimize runs one solve attempt against the latest desired state and
// adopts the result if it is good enough; a rejected attempt is recorded
// here, whichever step rejected it.
func (s *Service) reoptimize(ctx context.Context, boot bool) error {
	epoch, err := s.attempt(ctx, boot)
	if err != nil {
		var effs []effect
		s.locked(func(st *state) { effs = st.reject(epoch, err) })
		err = errors.Join(err, s.perform(effs))
	}
	return err
}

// attempt is the body of one re-optimization: snapshot the desired state,
// re-cluster if due, solve, diff, and adopt. It returns the epoch it
// targeted; an error means nothing was adopted. The incumbent is only ever
// replaced, never partially mutated, so readers always see a complete
// allocation.
func (s *Service) attempt(ctx context.Context, boot bool) (uint64, error) {
	var p attemptPlan
	s.locked(func(st *state) { p = st.beginAttempt() })

	if p.SolveSet == nil {
		// Re-cluster outside the lock — the snapshot is immutable, so the
		// O(S·R·Q) k-medoids run cannot race ingests or block readers.
		red, err := s.cluster(p.Scen)
		if err != nil {
			return p.Epoch, err
		}
		p.SolveSet = red.Reduced.Clone()
		// Read what the log line needs before handing red over: once it is
		// installed, an ingest may fold into it (and widen Radius) at any time.
		reps, bound := red.R(), red.MaxRadius()
		s.locked(func(st *state) { st.recluster(red, p.Scen) })
		s.logf("service: re-clustered %d scenarios into %d representatives (max deviation bound %.4f)",
			p.Scen.S(), reps, bound)
	}

	sctx := ctx
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}

	rec, err := s.solveRecorder(p.Epoch)
	if err != nil {
		return p.Epoch, err
	}

	opt := core.Options{
		Chunks:       s.cfg.Chunks,
		FixedQueries: s.cfg.FixedQueries,
		Parallelism:  s.cfg.Parallelism,
		MIP:          s.cfg.MIP,
		Canceled:     func() bool { return sctx.Err() != nil },
		Warm:         p.Warm,
		Checkpoint:   rec,
		Logf:         s.cfg.Logf,
	}
	start := time.Now()
	res, err := core.Allocate(s.cfg.Workload, p.SolveSet, p.K, opt)
	switch {
	case err != nil:
		return p.Epoch, err
	case res.Canceled:
		return p.Epoch, fmt.Errorf("service: solve for epoch %d timed out or was canceled", p.Epoch)
	case !boot && res.Outcomes.Degraded > 0:
		// Steady state: a degraded allocation never displaces a good
		// incumbent. Bootstrap is the exception — see Bootstrap.
		return p.Epoch, fmt.Errorf("service: solve for epoch %d degraded %d subproblem(s); keeping the incumbent",
			p.Epoch, res.Outcomes.Degraded)
	}

	outcome := "optimal"
	if res.Outcomes.Degraded > 0 {
		outcome = "degraded"
	} else if !res.Exact {
		outcome = "feasible"
	}
	var diff *Diff
	if p.Warm != nil {
		diff, err = ComputeDiff(s.cfg.Workload, p.Warm, res.Allocation, p.FromEpoch, p.Epoch)
		if err != nil {
			return p.Epoch, err
		}
	}
	now := time.Now()
	inc := &Incumbent{
		Allocation: res.Allocation,
		Epoch:      p.Epoch,
		Outcome:    outcome,
		W:          res.W,
		V:          res.V,
		Exact:      res.Exact,
		LPIters:    res.LPIters,
		SolveTime:  res.SolveTime,
		AdoptedAt:  now,
	}

	if err := s.publishGate(); err != nil {
		return p.Epoch, err
	}
	var effs []effect
	s.locked(func(st *state) { effs = st.adopt(inc, diff, now.Sub(start)) })
	return p.Epoch, s.perform(effs)
}

// solveRecorder opens the durable journal for the solve of the given epoch,
// resuming a previous attempt's progress if the daemon crashed mid-solve.
// Memory-only daemons get no recorder.
func (s *Service) solveRecorder(epoch uint64) (*checkpoint.Recorder, error) {
	if s.cfg.StateDir == "" {
		return nil, nil
	}
	dir := filepath.Join(s.cfg.StateDir, "solve", fmt.Sprintf("ep-%d", epoch))
	st, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	if s.cfg.Fault != nil {
		st.SetFault(s.cfg.Fault)
	}
	// The solve journal is fenced like the state journal: a deposed
	// leader's in-flight solve must not keep writing under a directory the
	// successor now owns.
	var check func() error
	s.locked(func(*state) { check = s.leaseCheck })
	st.SetFence(check)
	rec, err := st.Recorder(true, s.cfg.CheckpointEvery)
	if err != nil {
		// A corrupt solve journal costs a fresh solve, never the daemon.
		s.logf("service: warning: discarding unreadable solve journal %s: %v", dir, err)
		rec = checkpoint.NewRecorder(st, nil, s.cfg.CheckpointEvery)
	}
	if rec.Resumed() {
		s.logf("service: resuming interrupted solve of epoch %d from its journal", epoch)
	}
	return rec, nil
}

// Apply ingests one drift update (state.ingest), journals it and wakes the
// re-optimization loop. It returns the new epoch (pass it to WaitEpoch to
// await adoption). An invalid update is rejected whole with no state change;
// a replica that is following, or a leader whose journal write finds the
// lease lost, rejects with NotLeaderError; the admission gates reject with
// OverloadedError before any validation work.
func (s *Service) Apply(u Update) (epoch uint64, err error) {
	var effs []effect
	now := time.Now()
	s.locked(func(st *state) { epoch, effs, err = st.ingest(u, now) })
	if err == nil {
		err = s.perform(effs)
	}
	if err != nil {
		return 0, err
	}
	return epoch, nil
}

// waitEpoch is WaitEpoch plus the view that settled it, so a caller can
// answer from the same reading of the state that ended its wait.
func (s *Service) waitEpoch(ctx context.Context, epoch uint64) (view, bool, error) {
	for {
		v, done := s.snapshot()
		if v.Inc != nil && v.Inc.Epoch >= epoch {
			return v, true, nil
		}
		if v.AttemptEpoch >= epoch {
			return v, false, nil
		}
		select {
		case <-ctx.Done():
			return v, false, ctx.Err()
		case <-done:
		}
	}
}

// WaitEpoch blocks until a re-optimization attempt has covered the given
// epoch: true when the incumbent reached it, false when the attempt finished
// without adoption (failed, timed out, or degraded — the incumbent is stale
// but still serving).
func (s *Service) WaitEpoch(ctx context.Context, epoch uint64) (bool, error) {
	_, adopted, err := s.waitEpoch(ctx, epoch)
	return adopted, err
}

// Incumbent returns the currently served incumbent (nil before bootstrap)
// and the current desired epoch. The staleness in updates is
// epoch − inc.Epoch.
func (s *Service) Incumbent() (*Incumbent, uint64) {
	v, _ := s.snapshot()
	return v.Inc, v.Epoch
}

// Diff returns the migration plan of the latest adoption, or nil if the
// daemon has not re-optimized since boot.
func (s *Service) Diff() *Diff {
	v, _ := s.snapshot()
	return v.LastDiff
}

// Epoch returns the current desired epoch.
func (s *Service) Epoch() uint64 {
	v, _ := s.snapshot()
	return v.Epoch
}

// Status snapshots the daemon's state.
func (s *Service) Status() Status {
	v, _ := s.snapshot()
	return v.Status
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
