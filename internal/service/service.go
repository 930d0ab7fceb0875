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
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/core"
	"fragalloc/internal/faultinject"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

// Named kill points of the service loop, planted for the crash-restart suite
// via faultinject.Plan.KillAt (the solver's own kill points are
// KillAtCheckpoint on the per-epoch solve journal).
const (
	// KillPointIngest fires after an ingested update is journaled but
	// before the re-optimization loop is woken: the update must survive the
	// crash and be solved after restart.
	KillPointIngest = "service.ingest"
	// KillPointPublish fires between journaling an adopted incumbent and
	// publishing its diff: the restarted daemon must serve the new
	// incumbent immediately.
	KillPointPublish = "service.publish"
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

// Incumbent is the allocation the daemon currently serves, with the
// provenance needed to judge it: which epoch it solved, how (the PR 3
// Optimal/Feasible/Degraded ladder, collapsed to the worst outcome), and how
// hard the solve worked.
type Incumbent struct {
	Allocation *model.Allocation `json:"allocation"`
	// Epoch is the update epoch this allocation was solved against. The
	// service's current epoch minus this is the staleness in updates.
	Epoch   uint64 `json:"epoch"`
	Outcome string `json:"outcome"`
	W       float64
	V       float64
	Exact   bool
	LPIters int
	// SolveTime is the wall clock of the adopting solve; AdoptedAt is when
	// it was published.
	SolveTime time.Duration `json:"solve_time"`
	AdoptedAt time.Time     `json:"adopted_at"`
}

// Service is the daemon core. Create with New, seed with Bootstrap, then run
// the re-optimization loop with Run while serving reads/updates concurrently.
type Service struct {
	cfg  Config
	st   *checkpoint.Store // state journal; nil when memory-only
	wake chan struct{}     // kicks the Run loop; buffered, coalescing

	// persistMu serializes state-journal writes so concurrent adoptions and
	// ingests cannot interleave half-written generations. Lock order:
	// persistMu before mu, never inverted.
	persistMu sync.Mutex

	mu           sync.Mutex
	scen         *model.ScenarioSet  // desired scenario set (current epoch)
	k            int                 // desired node count
	epoch        uint64              // bumps on every accepted update
	inc          *Incumbent          // last good incumbent; nil before bootstrap
	red          *scenario.Reduction // derived reduced set; nil unless cfg.ReduceTo > 0
	redDirty     bool                // accumulated drift warrants a re-clustering
	drifted      float64             // weight folded or drifted since the last clustering
	redBaseS     int                 // full-set size the live clustering was built from
	reclusters   int                 // re-clusterings since boot (the boot build excluded)
	lastDiff     *Diff               // migration plan of the latest adoption
	lastErr      string              // why the latest attempt was rejected
	attemptEpoch uint64              // highest epoch a finished attempt targeted
	attemptDone  chan struct{}       // closed when an attempt finishes; then swapped
	fails        int                 // consecutive failed attempts
	attempts     int                 // total attempts
	adoptions    int                 // total adoptions
	rng          *rand.Rand          // seeded backoff jitter (guarded by mu)

	// High-availability state (DESIGN.md §3.13); role is RoleSingle and the
	// rest zero unless Config.HA is set.
	role       Role
	leaderAddr string       // known leader's advertised address
	leaseEpoch uint64       // fencing epoch while leading
	leaseCheck func() error // lease fence while leading; also on the store
	tailGen    uint64       // follower: newest journal generation adopted
	tailedAt   time.Time    // follower: when tailGen was adopted

	// Admission gates (nil/0 = unbounded).
	bucket     *tokenBucket
	maxPending int
}

// persistedState is the state journal's payload: everything the daemon needs
// to boot back into its last served state. The workload digest binds the
// journal to its workload, mirroring the solver journal's runKey binding.
// Scenarios is always the FULL desired set — the scenario reduction is
// derived state and deliberately not journaled; New re-clusters
// deterministically from the full set at boot.
type persistedState struct {
	WorkloadDigest uint64             `json:"workload_digest"`
	Epoch          uint64             `json:"epoch"`
	K              int                `json:"k"`
	Scenarios      *model.ScenarioSet `json:"scenarios"`
	Incumbent      *model.Allocation  `json:"incumbent,omitempty"`
	IncumbentEpoch uint64             `json:"incumbent_epoch"`
	Outcome        string             `json:"outcome,omitempty"`
	W              float64            `json:"w"`
	V              float64            `json:"v"`
	Exact          bool               `json:"exact"`
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
	s := &Service{
		cfg:         cfg,
		wake:        make(chan struct{}, 1),
		scen:        scen.Clone(),
		k:           cfg.K,
		rng:         rand.New(rand.NewSource(seed)),
		role:        RoleSingle,
		attemptDone: make(chan struct{}),
	}
	if cfg.HA != nil {
		s.role = RoleCandidate
	}
	if cfg.Admission != nil {
		s.maxPending = cfg.Admission.MaxPending
		if cfg.Admission.Rate > 0 {
			s.bucket = newTokenBucket(cfg.Admission.Rate, cfg.Admission.Burst, nil)
		}
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
	if cfg.ReduceTo > 0 && s.red == nil {
		// The reduction is derived state: it is built from the full set —
		// here when the journal supplied none, by adoptJournal when it did,
		// and after every re-clustering — rather than journaled. The seeded
		// k-medoids init makes the rebuild deterministic; folds and radius
		// widenings since the last clustering are lost in a crash, but the
		// from-scratch rebuild is at least as tight.
		red, err := s.cluster(s.scen)
		if err != nil {
			return nil, err
		}
		s.installClustering(red, s.scen.S())
	}
	return s, nil
}

// cluster reduces scen by the daemon's fixed clustering recipe; using it for
// the boot build, every adopted journal and every re-clustering keeps
// reductions reproducible.
func (s *Service) cluster(scen *model.ScenarioSet) (*scenario.Reduction, error) {
	red, err := scenario.Reduce(s.cfg.Workload, scen, scenario.ReduceConfig{R: s.cfg.ReduceTo, Seed: s.cfg.ReduceSeed})
	if err != nil {
		return nil, fmt.Errorf("service: scenario reduction: %w", err)
	}
	return red, nil
}

// installClustering makes red, built from a full set of baseS scenarios, the
// live clustering and restarts the drift accounting. Caller holds s.mu, or is
// New before s is shared.
func (s *Service) installClustering(red *scenario.Reduction, baseS int) {
	s.red, s.redDirty, s.drifted, s.redBaseS = red, false, 0, baseS
}

// decodePersisted decodes and fully validates one state-journal payload
// against this daemon's workload. It is the trust boundary of adoptJournal,
// through which boot, follower tailing and promotion all install a journal,
// so a corrupt or foreign generation is rejected identically everywhere.
func (s *Service) decodePersisted(payload []byte) (*persistedState, error) {
	var ps persistedState
	if err := json.Unmarshal(payload, &ps); err != nil {
		return nil, fmt.Errorf("service: state journal: %w", err)
	}
	if got, want := ps.WorkloadDigest, s.cfg.Workload.Digest(); got != want {
		return nil, fmt.Errorf("service: state journal was written for workload digest %016x, this daemon runs %016x", got, want)
	}
	if ps.K < 1 || ps.Scenarios == nil {
		return nil, fmt.Errorf("service: state journal is incomplete (k=%d)", ps.K)
	}
	if err := ps.Scenarios.Validate(s.cfg.Workload); err != nil {
		return nil, fmt.Errorf("service: state journal scenarios: %w", err)
	}
	if ps.Incumbent != nil {
		if err := ps.Incumbent.Validate(s.cfg.Workload); err != nil {
			return nil, fmt.Errorf("service: state journal incumbent: %w", err)
		}
	}
	return &ps, nil
}

// persist journals the daemon's current desired state and incumbent. It
// always snapshots the latest state under mu, so even when adoptions and
// ingests race, every written generation is internally consistent and the
// journal is monotone.
func (s *Service) persist() error {
	if s.st == nil {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.mu.Lock()
	ps := persistedState{
		WorkloadDigest: s.cfg.Workload.Digest(),
		Epoch:          s.epoch,
		K:              s.k,
		Scenarios:      s.scen,
	}
	if s.inc != nil {
		ps.Incumbent = s.inc.Allocation
		ps.IncumbentEpoch = s.inc.Epoch
		ps.Outcome = s.inc.Outcome
		ps.W, ps.V, ps.Exact = s.inc.W, s.inc.V, s.inc.Exact
	}
	s.mu.Unlock()
	payload, err := json.Marshal(&ps)
	if err != nil {
		return err
	}
	return s.st.SaveRaw(payload)
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
		s.mu.Lock()
		pending := s.inc == nil || s.epoch > s.inc.Epoch
		fails := s.fails
		s.mu.Unlock()

		if !pending {
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
			// Exponential backoff with the pre-attempt failure count + 1:
			// 1×, 2×, 4×, ... of BackoffBase, clamped to BackoffMax. The
			// wake channel is deliberately not selected here — a burst of
			// updates must not defeat the backoff; the pending check above
			// picks them up after the sleep.
			d := s.cfg.BackoffBase << min(fails, 20)
			if d > s.cfg.BackoffMax || d <= 0 {
				d = s.cfg.BackoffMax
			}
			d = s.jitter(d)
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

// jitter scales a backoff delay by a seeded ±25% factor, keeping the clamp:
// replicas retrying the same failure de-synchronize (each node derives its
// own seed from its ID) while any single node's delays stay reproducible.
func (s *Service) jitter(d time.Duration) time.Duration {
	s.mu.Lock()
	f := 0.75 + 0.5*s.rng.Float64()
	s.mu.Unlock()
	j := time.Duration(float64(d) * f)
	if j > s.cfg.BackoffMax {
		j = s.cfg.BackoffMax
	}
	if j <= 0 {
		j = d
	}
	return j
}

// reoptimize runs one solve attempt against the latest desired state and
// adopts the result if it is good enough; a rejected attempt is recorded
// here, whichever step rejected it.
func (s *Service) reoptimize(ctx context.Context, boot bool) error {
	epoch, err := s.attempt(ctx, boot)
	if err != nil {
		s.finishAttempt(epoch, false, nil, err)
	}
	return err
}

// attempt is the body of one re-optimization: snapshot the desired state,
// re-cluster if due, solve, diff, and adopt. It returns the epoch it
// targeted; an error means nothing was adopted. The incumbent is only ever
// replaced, never partially mutated, so readers always see a complete
// allocation.
func (s *Service) attempt(ctx context.Context, boot bool) (uint64, error) {
	s.mu.Lock()
	epoch := s.epoch
	k := s.k
	scen := s.scen
	solveSet := scen
	rebuild := false
	if s.cfg.ReduceTo > 0 {
		if s.redDirty || s.red == nil {
			rebuild = true
		} else {
			// Clone under mu: Apply folds observations into s.red.Reduced
			// concurrently, and the solver must see a frozen set.
			solveSet = s.red.Reduced.Clone()
		}
	}
	var warm *model.Allocation
	var fromEpoch uint64
	if s.inc != nil {
		warm = s.inc.Allocation
		fromEpoch = s.inc.Epoch
	}
	s.attempts++
	s.mu.Unlock()

	if rebuild {
		// Re-cluster outside the lock — the snapshot pointer is immutable
		// (applyUpdate always clones), so the O(S·R·Q) k-medoids run cannot
		// race ingests or block Status readers. Adopt the result only if no
		// update landed meanwhile; otherwise it still serves this solve and
		// the dirty flag sends the next attempt back here.
		red, err := s.cluster(scen)
		if err != nil {
			return epoch, err
		}
		solveSet = red.Reduced.Clone()
		// Read what the log line needs before publishing red: once it is
		// s.red, an ingest may fold into it (and widen Radius) at any time.
		reps, bound := red.R(), red.MaxRadius()
		s.mu.Lock()
		if s.scen == scen {
			s.installClustering(red, scen.S())
			s.reclusters++
		}
		s.mu.Unlock()
		s.logf("service: re-clustered %d scenarios into %d representatives (max deviation bound %.4f)",
			scen.S(), reps, bound)
	}

	sctx := ctx
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}

	rec, cleanup, err := s.solveRecorder(epoch)
	if err != nil {
		return epoch, err
	}

	opt := core.Options{
		Chunks:       s.cfg.Chunks,
		FixedQueries: s.cfg.FixedQueries,
		Parallelism:  s.cfg.Parallelism,
		MIP:          s.cfg.MIP,
		Canceled:     func() bool { return sctx.Err() != nil },
		Warm:         warm,
		Checkpoint:   rec,
		Logf:         s.cfg.Logf,
	}
	start := time.Now()
	res, err := core.Allocate(s.cfg.Workload, solveSet, k, opt)
	switch {
	case err != nil:
		return epoch, err
	case res.Canceled:
		return epoch, fmt.Errorf("service: solve for epoch %d timed out or was canceled", epoch)
	case !boot && res.Outcomes.Degraded > 0:
		// Steady state: a degraded allocation never displaces a good
		// incumbent. Bootstrap is the exception — see Bootstrap.
		return epoch, fmt.Errorf("service: solve for epoch %d degraded %d subproblem(s); keeping the incumbent",
			epoch, res.Outcomes.Degraded)
	}

	outcome := "optimal"
	if res.Outcomes.Degraded > 0 {
		outcome = "degraded"
	} else if !res.Exact {
		outcome = "feasible"
	}
	var diff *Diff
	if warm != nil {
		diff, err = ComputeDiff(s.cfg.Workload, warm, res.Allocation, fromEpoch, epoch)
		if err != nil {
			return epoch, err
		}
	}
	inc := &Incumbent{
		Allocation: res.Allocation,
		Epoch:      epoch,
		Outcome:    outcome,
		W:          res.W,
		V:          res.V,
		Exact:      res.Exact,
		LPIters:    res.LPIters,
		SolveTime:  res.SolveTime,
		AdoptedAt:  time.Now(),
	}

	// A replica may only publish while it is the write authority: the
	// leader re-verifies its lease here, so a deposition mid-solve rejects
	// the result instead of forking the group's served history.
	if err := s.publishGate(); err != nil {
		return epoch, err
	}

	// Adoption order is the crash contract: (1) publish the incumbent in
	// memory, (2) journal it, (3) hit the publish kill point, (4) publish
	// the diff and release waiters. A crash between (2) and (4) restarts
	// into the new incumbent with the diff lost — the diff is derivable,
	// the incumbent is not.
	s.mu.Lock()
	s.inc = inc
	s.adoptions++
	s.mu.Unlock()
	if err := s.persist(); err != nil {
		s.logf("service: warning: journaling the adopted incumbent failed: %v", err)
	}
	s.cfg.Fault.At(KillPointPublish)
	s.finishAttempt(epoch, true, diff, nil)
	cleanup()
	s.logf("service: adopted epoch %d (%s, W/V=%.4f, %v, warm=%v)",
		epoch, outcome, res.ReplicationFactor, time.Since(start).Round(time.Millisecond), warm != nil)
	return epoch, nil
}

// finishAttempt records an attempt's outcome and releases WaitEpoch waiters.
// The done channel is closed outside the lock (and swapped for a fresh one
// under it), so waiters never receive a close while s.mu is held.
func (s *Service) finishAttempt(epoch uint64, adopted bool, diff *Diff, err error) {
	s.mu.Lock()
	if epoch > s.attemptEpoch {
		s.attemptEpoch = epoch
	}
	if adopted {
		s.fails = 0
		s.lastErr = ""
		if diff != nil {
			s.lastDiff = diff
		}
	} else {
		s.fails++
		s.lastErr = err.Error()
	}
	done := s.attemptDone
	s.attemptDone = make(chan struct{})
	s.mu.Unlock()
	close(done)
}

// solveRecorder opens the durable journal for the solve of the given epoch,
// resuming a previous attempt's progress if the daemon crashed mid-solve.
// The cleanup retires the journal after adoption. Memory-only daemons get no
// recorder.
func (s *Service) solveRecorder(epoch uint64) (*checkpoint.Recorder, func(), error) {
	if s.cfg.StateDir == "" {
		return nil, func() {}, nil
	}
	dir := filepath.Join(s.cfg.StateDir, "solve", fmt.Sprintf("ep-%d", epoch))
	st, err := checkpoint.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	if s.cfg.Fault != nil {
		st.SetFault(s.cfg.Fault)
	}
	// The solve journal is fenced like the state journal: a deposed
	// leader's in-flight solve must not keep writing under a directory the
	// successor now owns.
	s.mu.Lock()
	check := s.leaseCheck
	s.mu.Unlock()
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
	cleanup := func() {
		if err := os.RemoveAll(filepath.Join(s.cfg.StateDir, "solve")); err != nil {
			s.logf("service: warning: could not retire solve journals: %v", err)
		}
	}
	return rec, cleanup, nil
}

// Apply ingests one drift update: validate against the current desired
// state, bump the epoch, journal, and wake the re-optimization loop. It
// returns the new epoch (pass it to WaitEpoch to await adoption). An invalid
// update is rejected whole with no state change; a non-leader replica —
// one that is following, or a leader whose journal write finds the lease
// lost — rejects with NotLeaderError, and the admission gates reject with
// OverloadedError before any validation work.
func (s *Service) Apply(u Update) (uint64, error) {
	if err := s.admit(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	scen, k, err := applyUpdate(s.cfg.Workload, s.scen, s.k, u)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	// A fixed decomposition spec covers exactly Chunks.Leaves nodes, so a
	// resize away from it could never solve — reject at ingest rather than
	// letting the loop retry an unsolvable epoch forever.
	if k != s.k && s.cfg.Chunks != nil && s.cfg.Chunks.Leaves != k {
		s.mu.Unlock()
		return 0, fmt.Errorf("service: set_k %d conflicts with the fixed chunk spec %q (%d nodes)", k, s.cfg.Chunks, s.cfg.Chunks.Leaves)
	}
	oldS := s.scen.S()
	s.scen, s.k = scen, k
	s.epoch++
	epoch := s.epoch
	if s.red != nil {
		s.absorbLocked(u, oldS, scen)
	}
	s.mu.Unlock()

	if err := s.persist(); err != nil {
		s.logf("service: warning: journaling epoch %d failed: %v", epoch, err)
		if errors.Is(err, checkpoint.ErrLeaseLost) {
			// Deposed between renewals: the update is in no journal and dies
			// with this reign, so it must not be acknowledged. Any other
			// journal failure leaves this replica the write authority, and the
			// next successful save carries the update.
			return 0, &NotLeaderError{}
		}
	}
	s.cfg.Fault.At(KillPointIngest)
	s.kick()
	return epoch, nil
}

// absorbLocked folds an accepted update into the derived reduction instead
// of re-clustering: newly observed scenarios join their nearest cluster with
// weight 1, and scenarios moved by frequency deltas re-register their
// coverage and deviation with weight 0 (they are already counted). Either
// way the cluster radius widens as needed, so the deviation bound stays
// honest between re-clusterings. Both kinds advance the drift total; once it
// exceeds ReclusterThreshold × the size the clustering was built from, the
// next re-optimization rebuilds from scratch. Caller holds s.mu.
func (s *Service) absorbLocked(u Update, oldS int, scen *model.ScenarioSet) {
	seen := make(map[int]bool)
	var touched []int
	for _, d := range u.FreqDeltas {
		if d.Scenario < oldS && !seen[d.Scenario] {
			seen[d.Scenario] = true
			touched = append(touched, d.Scenario)
		}
	}
	sort.Ints(touched)
	for _, idx := range touched {
		s.red.Absorb(scen.Frequencies[idx], 0)
		s.drifted++
	}
	for i := oldS; i < scen.S(); i++ {
		s.red.Absorb(scen.Frequencies[i], 1)
		s.drifted++
	}
	if s.drifted > s.cfg.ReclusterThreshold*float64(s.redBaseS) {
		s.redDirty = true
	}
}

// kick wakes the Run loop; a pending wake already covers us (coalescing).
func (s *Service) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// WaitEpoch blocks until a re-optimization attempt has covered the given
// epoch: true when the incumbent reached it, false when the attempt finished
// without adoption (failed, timed out, or degraded — the incumbent is stale
// but still serving).
func (s *Service) WaitEpoch(ctx context.Context, epoch uint64) (bool, error) {
	for {
		s.mu.Lock()
		if s.inc != nil && s.inc.Epoch >= epoch {
			s.mu.Unlock()
			return true, nil
		}
		if s.attemptEpoch >= epoch {
			s.mu.Unlock()
			return false, nil
		}
		done := s.attemptDone
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-done:
		}
	}
}

// Incumbent returns the currently served incumbent (nil before bootstrap)
// and the current desired epoch. The staleness in updates is
// epoch − inc.Epoch.
func (s *Service) Incumbent() (*Incumbent, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc, s.epoch
}

// Diff returns the migration plan of the latest adoption, or nil if the
// daemon has not re-optimized since boot.
func (s *Service) Diff() *Diff {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastDiff
}

// Epoch returns the current desired epoch.
func (s *Service) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Status is the daemon's self-description, served on /v1/status.
type Status struct {
	// Epoch is the desired state's epoch, IncumbentEpoch the epoch the
	// served allocation solved; StaleUpdates is their difference.
	Epoch          uint64 `json:"epoch"`
	IncumbentEpoch uint64 `json:"incumbent_epoch"`
	StaleUpdates   uint64 `json:"stale_updates"`
	// Outcome is the incumbent solve's worst subproblem outcome:
	// optimal, feasible, or degraded ("" before bootstrap).
	Outcome   string    `json:"outcome,omitempty"`
	AdoptedAt time.Time `json:"adopted_at"`

	W                 float64 `json:"w"`
	V                 float64 `json:"v"`
	ReplicationFactor float64 `json:"replication_factor"`
	Exact             bool    `json:"exact"`
	LPIters           int     `json:"lp_iters"`

	K         int `json:"k"`
	Scenarios int `json:"scenarios"`

	// Scenario reduction (all zero unless the daemon clusters its set,
	// DESIGN.md §3.12): how many weighted representatives the solves see,
	// the certified worst-case deviation of any member scenario from its
	// representative, the drift folded in since the last clustering, and how
	// often the threshold forced a rebuild.
	ReducedScenarios    int     `json:"reduced_scenarios,omitempty"`
	MaxDeviationBound   float64 `json:"max_deviation_bound,omitempty"`
	DriftSinceRecluster float64 `json:"drift_since_recluster,omitempty"`
	Reclusterings       int     `json:"reclusterings,omitempty"`

	// LastError is why the latest attempt was rejected ("" when the
	// incumbent is current); ConsecutiveFailures drives the backoff.
	LastError           string `json:"last_error,omitempty"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Attempts            int    `json:"attempts"`
	Adoptions           int    `json:"adoptions"`

	// High availability (DESIGN.md §3.13). Role is "single" outside HA;
	// LeaseEpoch is the fencing epoch while leading. Followers report the
	// journal generation they last tailed and how long ago, plus the leader
	// they redirect writes to.
	Role           Role          `json:"role"`
	LeaderAddr     string        `json:"leader_addr,omitempty"`
	LeaseEpoch     uint64        `json:"lease_epoch,omitempty"`
	TailGeneration uint64        `json:"tail_generation,omitempty"`
	TailAge        time.Duration `json:"tail_age_ns,omitempty"`
}

// Status snapshots the daemon's state.
func (s *Service) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Epoch:               s.epoch,
		K:                   s.k,
		Scenarios:           s.scen.S(),
		LastError:           s.lastErr,
		ConsecutiveFailures: s.fails,
		Attempts:            s.attempts,
		Adoptions:           s.adoptions,
		Role:                s.role,
		LeaseEpoch:          s.leaseEpoch,
		TailGeneration:      s.tailGen,
	}
	if s.role != RoleLeader {
		st.LeaderAddr = s.leaderAddr
	}
	if !s.tailedAt.IsZero() {
		st.TailAge = time.Since(s.tailedAt)
	}
	if s.red != nil {
		st.ReducedScenarios = s.red.R()
		st.MaxDeviationBound = s.red.MaxRadius()
		st.DriftSinceRecluster = s.drifted
		st.Reclusterings = s.reclusters
	}
	if s.inc != nil {
		st.IncumbentEpoch = s.inc.Epoch
		st.StaleUpdates = s.epoch - s.inc.Epoch
		st.Outcome = s.inc.Outcome
		st.AdoptedAt = s.inc.AdoptedAt
		st.W, st.V = s.inc.W, s.inc.V
		if s.inc.V > 0 {
			st.ReplicationFactor = s.inc.W / s.inc.V
		}
		st.Exact = s.inc.Exact
		st.LPIters = s.inc.LPIters
	}
	return st
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
