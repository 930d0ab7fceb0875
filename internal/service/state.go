// The daemon's state machine (DESIGN.md §3.11, §3.13): every field an event
// can move, and the transitions that move them. Nothing here locks, logs,
// reads a clock, touches a file or a channel, or calls the solver: the instant
// is an argument, and the I/O a transition obliges comes back as an ordered
// effect list for the shell in service.go to perform once it has unlocked.
package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

type state struct {
	// Fixed at construction: the parts of Config the transitions read.
	w           *model.Workload
	fixedK      int    // node count the fixed chunk spec covers; 0 without one
	chunkSpec   string // that spec, for the refusal message
	backoffBase time.Duration
	backoffMax  time.Duration
	maxPending  int          // pending-update bound; 0 = unbounded
	bucket      *tokenBucket // ingest-rate gate; nil = unbounded

	scen         *model.ScenarioSet  // desired scenario set (current epoch)
	k            int                 // desired node count
	epoch        uint64              // bumps on every accepted update
	inc          *Incumbent          // last good incumbent; nil before bootstrap
	red          *scenario.Reduction // derived reduced set; nil unless Config.ReduceTo > 0
	redDirty     bool                // accumulated drift warrants a re-clustering
	drifted      float64             // weight folded or drifted since the last clustering
	redBaseS     int                 // full-set size the live clustering was built from
	reclusters   int                 // re-clusterings since boot (the boot build excluded)
	lastDiff     *Diff               // migration plan of the latest adoption
	lastErr      string              // why the latest attempt was rejected
	attemptEpoch uint64              // highest epoch a finished attempt targeted
	fails        int                 // consecutive failed attempts
	attempts     int                 // total attempts
	adoptions    int                 // total adoptions
	lastStarts   json.RawMessage     // basis-start counts of the latest solve (solved)
	rng          *rand.Rand          // seeded backoff jitter

	// High availability (DESIGN.md §3.13); role is RoleSingle and the rest
	// zero unless Config.HA is set.
	role       Role
	leaderAddr string    // known leader's advertised address
	leaseEpoch uint64    // fencing epoch while leading
	tailGen    uint64    // follower: newest journal generation installed
	tailedAt   time.Time // follower: when tailGen was installed
}

// newState is the state of a daemon that has seen nothing yet, from a cfg New
// has defaulted; now is the instant the admission bucket starts full.
func newState(cfg Config, scen *model.ScenarioSet, jitterSeed int64, now time.Time) state {
	st := state{
		w:           cfg.Workload,
		backoffBase: cfg.BackoffBase,
		backoffMax:  cfg.BackoffMax,
		scen:        scen,
		k:           cfg.K,
		rng:         rand.New(rand.NewSource(jitterSeed)),
		role:        RoleSingle,
	}
	if cfg.Chunks != nil {
		st.fixedK, st.chunkSpec = cfg.Chunks.Leaves, cfg.Chunks.String()
	}
	if cfg.HA != nil {
		st.role = RoleCandidate
	}
	if adm := cfg.Admission; adm != nil {
		st.maxPending = adm.MaxPending
		if adm.Rate > 0 {
			st.bucket = newTokenBucket(adm.Rate, adm.Burst, now)
		}
	}
	return st
}

// An effect is one piece of I/O a transition obliges the shell to perform;
// a transition returns its effects in the order they must happen.
type effect struct {
	op   effectOp
	text string // what is journaled (for the warning), or the log format
	args []any  // effLog's arguments
	// ack marks a journal write the rest of the list would acknowledge: if
	// the lease fence refuses it, the shell stops there with NotLeaderError.
	// Every other journal failure is logged and the list goes on.
	ack bool
}

type effectOp int

const (
	effJournal effectOp = iota // journal the state as it is when the write happens
	effWake                    // wake the re-optimization loop
	effRelease                 // release the WaitEpoch waiters
	effRetire                  // delete the solve journals
	effLog                     // one progress line
)

// writeAuthority refuses a replica that is following or between reigns.
func (st *state) writeAuthority() error {
	if st.role == RoleFollower || st.role == RoleCandidate {
		return &NotLeaderError{Leader: st.leaderAddr}
	}
	return nil
}

// ingest applies one drift update as of now, or refuses it whole. The gates
// run in rejection-cost order — role (a follower redirects), queue bound,
// rate bucket — so a refused update never consumes a token, and only then is
// the update validated. Being one transition, the pending count an update is
// admitted against is the one its own epoch extends.
func (st *state) ingest(u Update, now time.Time) (uint64, []effect, error) {
	if err := st.writeAuthority(); err != nil {
		return 0, nil, err
	}
	pending := st.epoch
	if st.inc != nil {
		pending = st.epoch - st.inc.Epoch
	}
	if st.maxPending > 0 && pending >= uint64(st.maxPending) {
		// The queue drains one solve at a time; the backoff base is the
		// closest cheap estimate of when a slot frees up.
		return 0, nil, &OverloadedError{Reason: "queue", RetryAfter: max(st.backoffBase, time.Second)}
	}
	if st.bucket != nil {
		if ok, retryAfter := st.bucket.take(now); !ok {
			return 0, nil, &OverloadedError{Reason: "rate", RetryAfter: retryAfter}
		}
	}
	scen, k, err := applyUpdate(st.w, st.scen, st.k, u)
	if err != nil {
		return 0, nil, err
	}
	// A fixed decomposition spec covers exactly fixedK nodes, so a resize
	// away from it could never solve — refuse at ingest rather than letting
	// the loop retry an unsolvable epoch forever.
	if k != st.k && st.fixedK != 0 && st.fixedK != k {
		return 0, nil, fmt.Errorf("service: set_k %d conflicts with the fixed chunk spec %q (%d nodes)", k, st.chunkSpec, st.fixedK)
	}
	oldS := st.scen.S()
	st.scen, st.k = scen, k
	st.epoch++
	if st.red != nil {
		st.absorb(u, oldS)
	}
	return st.epoch, []effect{
		{op: effJournal, text: fmt.Sprintf("epoch %d", st.epoch), ack: true},
		{op: effWake},
	}, nil
}

// reclusterThreshold is the drift, as a fraction of the full-set size the
// live clustering was built from, past which the next attempt re-clusters.
// Like reduceSeed it is part of the clustering recipe every replica shares.
const reclusterThreshold = 0.25

// absorb folds an accepted update into the derived reduction instead of
// re-clustering: newly observed scenarios join their nearest cluster with
// weight 1, and scenarios moved by frequency deltas re-register their
// coverage and deviation with weight 0 (they are already counted). Either
// way the cluster radius widens as needed, so the deviation bound stays
// honest between re-clusterings. Both kinds advance the drift total; once it
// exceeds reclusterThreshold × the size the clustering was built from, the
// next attempt rebuilds from scratch.
func (st *state) absorb(u Update, oldS int) {
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
		st.red.Absorb(st.scen.Frequencies[idx], 0)
		st.drifted++
	}
	for i := oldS; i < st.scen.S(); i++ {
		st.red.Absorb(st.scen.Frequencies[i], 1)
		st.drifted++
	}
	if st.drifted > reclusterThreshold*float64(st.redBaseS) {
		st.redDirty = true
	}
}

// attemptPlan is the desired state at the instant an attempt began. Scen is
// the full set (immutable — applyUpdate always clones); SolveSet is what the
// solver sees: Scen, or a frozen copy of the reduced set when the daemon
// clusters, or nil when the clustering must first be rebuilt from Scen.
type attemptPlan struct {
	Epoch     uint64
	K         int
	Scen      *model.ScenarioSet
	SolveSet  *model.ScenarioSet
	Warm      *model.Allocation // the incumbent, as warm start and diff base
	FromEpoch uint64
	Bases     json.RawMessage // the incumbent's bases, for the solve to start from
}

// beginAttempt counts an attempt and snapshots what it targets.
func (st *state) beginAttempt() attemptPlan {
	p := attemptPlan{Epoch: st.epoch, K: st.k, Scen: st.scen, SolveSet: st.scen}
	if st.red != nil {
		p.SolveSet = nil
		if !st.redDirty {
			// ingest folds into the live reduced set; the solver needs a frozen one.
			p.SolveSet = st.red.Reduced.Clone()
		}
	}
	if st.inc != nil {
		p.Warm, p.FromEpoch, p.Bases = st.inc.Allocation, st.inc.Epoch, st.inc.Bases
	}
	st.attempts++
	return p
}

// setClustering makes red, built from a full set of baseS scenarios, the live
// clustering and restarts the drift accounting.
func (st *state) setClustering(red *scenario.Reduction, baseS int) {
	st.red, st.redDirty, st.drifted, st.redBaseS = red, false, 0, baseS
}

// recluster installs a re-clustering computed from the snapshot from — unless
// an update landed since: then red (which still served the attempt that built
// it) is dropped, and the dirty flag sends the next attempt back to rebuild.
func (st *state) recluster(red *scenario.Reduction, from *model.ScenarioSet) bool {
	if st.scen != from {
		return false
	}
	st.setClustering(red, from.S())
	st.reclusters++
	return true
}

// solved records the basis-start counts of the solve an attempt just
// finished, JSON-encoded by the shell (core.BasisStarts); /v1/status serves
// them until the next solve finishes, whether or not its result is adopted.
func (st *state) solved(starts json.RawMessage) {
	st.lastStarts = append(json.RawMessage(nil), starts...)
}

// adopt makes inc the served incumbent. What it returns is the crash
// contract: inc and its diff are in memory from here; then the journal; then
// the waiters. A crash after the journal write restarts into inc with the
// diff lost — the diff is derivable, the incumbent is not. diff is nil for
// the first incumbent; took is for the log line only.
func (st *state) adopt(inc *Incumbent, diff *Diff, took time.Duration) []effect {
	warm := st.inc != nil
	st.inc = inc
	st.adoptions++
	st.attemptEpoch = max(st.attemptEpoch, inc.Epoch)
	st.fails, st.lastErr = 0, ""
	if diff != nil {
		st.lastDiff = diff
	}
	return []effect{
		{op: effJournal, text: "the adopted incumbent"},
		{op: effRelease},
		{op: effRetire},
		{op: effLog, text: "service: adopted epoch %d (%s, W/V=%.4f, %v, warm=%v)",
			args: []any{inc.Epoch, inc.Outcome, inc.W / inc.V, took.Round(time.Millisecond), warm}},
	}
}

// reject records that the attempt targeting epoch adopted nothing (failed,
// timed out, degraded, refused at the publish gate): the incumbent keeps
// serving, tagged with the reason.
func (st *state) reject(epoch uint64, err error) []effect {
	st.attemptEpoch = max(st.attemptEpoch, epoch)
	st.fails++
	st.lastErr = err.Error()
	return []effect{{op: effRelease}}
}

// retryDelay is the sleep after the rejection just recorded: 1×, 2×, 4×, ...
// of the backoff base by consecutive failure, clamped to the maximum, then
// scaled by a seeded ±25% so replicas retrying the same failure de-synchronize
// (each seeds from its node ID) while one node's delays stay reproducible.
func (st *state) retryDelay() time.Duration {
	d := st.backoffBase << min(max(st.fails-1, 0), 20)
	if d > st.backoffMax || d <= 0 {
		d = st.backoffMax
	}
	j := min(time.Duration(float64(d)*(0.75+0.5*st.rng.Float64())), st.backoffMax)
	if j <= 0 {
		j = d
	}
	return j
}

// setRole moves this replica to role, knowing the leader at leaderAddr ("" =
// none known); leaseEpoch is the fencing epoch while leading and 0 otherwise.
func (st *state) setRole(role Role, leaderAddr string, leaseEpoch uint64) {
	st.role, st.leaderAddr, st.leaseEpoch = role, leaderAddr, leaseEpoch
}

// persistedState is the state journal's payload: everything the daemon needs
// to boot back into its last served state. The workload digest binds the
// journal to its workload, mirroring the solver journal's runKey binding.
// Scenarios is always the FULL desired set — the scenario reduction is
// derived state and deliberately not journaled; it is re-clustered
// deterministically from the full set wherever a frame is installed.
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
	Bases          json.RawMessage    `json:"bases,omitempty"`
}

// persisted is the journal frame describing the state as it is now.
func (st *state) persisted() persistedState {
	ps := persistedState{WorkloadDigest: st.w.Digest(), Epoch: st.epoch, K: st.k, Scenarios: st.scen}
	if inc := st.inc; inc != nil {
		ps.Incumbent, ps.IncumbentEpoch, ps.Outcome = inc.Allocation, inc.Epoch, inc.Outcome
		ps.W, ps.V, ps.Exact, ps.Bases = inc.W, inc.V, inc.Exact, inc.Bases
	}
	return ps
}

// decodePersisted decodes and fully validates one state-journal payload
// against workload w. It is the trust boundary in front of install, through
// which boot, follower tailing and promotion all bring a journal in, so a
// corrupt or foreign generation is rejected identically everywhere.
func decodePersisted(w *model.Workload, payload []byte) (*persistedState, error) {
	var ps persistedState
	if err := json.Unmarshal(payload, &ps); err != nil {
		return nil, fmt.Errorf("service: state journal: %w", err)
	}
	if got, want := ps.WorkloadDigest, w.Digest(); got != want {
		return nil, fmt.Errorf("service: state journal was written for workload digest %016x, this daemon runs %016x", got, want)
	}
	if ps.K < 1 || ps.Scenarios == nil {
		return nil, fmt.Errorf("service: state journal is incomplete (k=%d)", ps.K)
	}
	if err := ps.Scenarios.Validate(w); err != nil {
		return nil, fmt.Errorf("service: state journal scenarios: %w", err)
	}
	if ps.Incumbent != nil {
		if err := ps.Incumbent.Validate(w); err != nil {
			return nil, fmt.Errorf("service: state journal incumbent: %w", err)
		}
	}
	return &ps, nil
}

// install replaces the desired state and the incumbent by a decoded journal
// frame — at boot, on a follower's tail and at promotion alike. red clusters
// the frame's scenario set (nil when the daemon does not cluster); gen > 0 is
// the generation a follower tailed, recorded with now for its staleness.
func (st *state) install(ps *persistedState, red *scenario.Reduction, gen uint64, now time.Time) {
	st.scen, st.k, st.epoch = ps.Scenarios, ps.K, ps.Epoch
	if ps.Incumbent != nil {
		st.inc = &Incumbent{Allocation: ps.Incumbent, Epoch: ps.IncumbentEpoch, Outcome: ps.Outcome,
			W: ps.W, V: ps.V, Exact: ps.Exact, Bases: ps.Bases}
	}
	if red != nil {
		st.setClustering(red, ps.Scenarios.S())
	}
	if gen > 0 {
		st.tailGen, st.tailedAt = gen, now
	}
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
	// Bases are the optimal bases of the adopting solve's dive roots, by
	// subproblem id and role — a JSON-encoded map[string]*checkpoint.Basis,
	// opaque to the state machine. They are journaled with the incumbent,
	// and the next solve's dives start from them (DESIGN.md §3.11); nil
	// starts them cold.
	Bases json.RawMessage `json:"-"`
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
	// BasisStarts counts, for the latest solve, the LPs that started from a
	// basis and those refused and solved cold (core.BasisStarts); absent
	// before the first solve.
	BasisStarts json.RawMessage `json:"basis_starts,omitempty"`

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

// view is one consistent reading of the state; the accessors, WaitEpoch and
// every HTTP response answer from exactly one.
type view struct {
	Status
	Inc          *Incumbent
	Age          time.Duration // how long Inc has served; 0 when restored from the journal
	LastDiff     *Diff
	AttemptEpoch uint64
}

// view reads the state as of now.
func (st *state) view(now time.Time) view {
	v := view{
		Status: Status{
			Epoch:               st.epoch,
			K:                   st.k,
			Scenarios:           st.scen.S(),
			LastError:           st.lastErr,
			ConsecutiveFailures: st.fails,
			BasisStarts:         st.lastStarts,
			Attempts:            st.attempts,
			Adoptions:           st.adoptions,
			Role:                st.role,
			LeaseEpoch:          st.leaseEpoch,
			TailGeneration:      st.tailGen,
		},
		Inc:          st.inc,
		LastDiff:     st.lastDiff,
		AttemptEpoch: st.attemptEpoch,
	}
	if st.role != RoleLeader {
		v.LeaderAddr = st.leaderAddr
	}
	if !st.tailedAt.IsZero() {
		v.TailAge = now.Sub(st.tailedAt)
	}
	if st.red != nil {
		v.ReducedScenarios = st.red.R()
		v.MaxDeviationBound = st.red.MaxRadius()
		v.DriftSinceRecluster = st.drifted
		v.Reclusterings = st.reclusters
	}
	if inc := st.inc; inc != nil {
		v.IncumbentEpoch = inc.Epoch
		v.StaleUpdates = st.epoch - inc.Epoch
		v.Outcome = inc.Outcome
		v.AdoptedAt = inc.AdoptedAt
		v.W, v.V = inc.W, inc.V
		if inc.V > 0 {
			v.ReplicationFactor = inc.W / inc.V
		}
		v.Exact = inc.Exact
		v.LPIters = inc.LPIters
		if !inc.AdoptedAt.IsZero() {
			v.Age = now.Sub(inc.AdoptedAt)
		}
	}
	return v
}

// tokenBucket is a standard leaky token bucket; the clock is the caller's.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// newTokenBucket starts full: the first burst is always admitted.
func newTokenBucket(rate float64, burst int, now time.Time) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: now}
}

// take admits one update if a token is available at now; otherwise it
// reports how long until the next token accrues.
func (b *tokenBucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = min(b.tokens+dt*b.rate, b.burst)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}
