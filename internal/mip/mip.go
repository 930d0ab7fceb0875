// Package mip solves mixed binary-integer linear programs by LP-based
// branch and bound, using the bounded-variable simplex of package simplex
// for the relaxations and warm-started dual re-solves when exploring the
// tree. The warm starts lean on the simplex solver's sparse LU basis
// kernel: a SetBound call invalidates neither the factorization nor the
// eta file, so a node re-solve costs a few dual pivots at the sparse
// factorization's fill, which is what makes deep trees affordable on large
// models.
//
// The solver is built for the fragment-allocation MIPs of the reproduced
// paper: minimization problems whose integer variables are binaries (the
// fragment-placement variables x and query-executability variables y),
// where good incumbents can be constructed by domain-specific rounding.
// It therefore supports
//
//   - presolve reductions (bound tightening, implication fixing between the
//     paper's binaries; see presolve.go) applied before the root relaxation,
//     with results reported in the caller's original coordinates,
//   - best-first node selection with depth-first plunging,
//   - reliability-weighted pseudocost branching with a most-fractional
//     fallback until degradation observations exist,
//   - an optional caller-supplied rounding heuristic that proposes integer
//     assignments which the solver completes into feasible incumbents, and
//   - wall-clock and node budgets with proven-bound and gap reporting, so
//     callers can trade solution quality for time exactly like the paper
//     trades Gurobi time for memory quality.
//
// # Concurrency
//
// A Solve call owns every piece of mutable state it touches: the simplex
// solvers it creates copy the Problem at construction, and the search state
// lives on the call's stack. Concurrent Solve calls are therefore safe —
// even on the same *simplex.Problem — provided no goroutine mutates the
// Problem or the Options callbacks' shared state while a solve is running.
// The parallel decomposition driver in internal/core relies on exactly this
// contract: one solver stack per goroutine, nothing shared but read-only
// problem data.
package mip

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"fragalloc/internal/simplex"
)

// Status describes the outcome of a MIP solve.
type Status int

const (
	// StatusUnknown means the solve did not reach a conclusion.
	StatusUnknown Status = iota
	// StatusOptimal means the incumbent is optimal within the gap
	// tolerances.
	StatusOptimal
	// StatusFeasible means a feasible incumbent exists but the search
	// stopped (time/node limit) before proving optimality.
	StatusFeasible
	// StatusInfeasible means the problem has no feasible solution.
	StatusInfeasible
	// StatusNoSolution means a limit was reached before any feasible
	// solution was found.
	StatusNoSolution
	// StatusUnbounded means the LP relaxation is unbounded.
	StatusUnbounded
)

func (s Status) String() string {
	switch s {
	case StatusUnknown:
		return "unknown"
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusNoSolution:
		return "no-solution"
	case StatusUnbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Result reports the incumbent and the proven bound.
type Result struct {
	Status Status
	// X is the incumbent solution (length NumVars) if one was found.
	X []float64
	// Obj is the incumbent objective value.
	Obj float64
	// Bound is the proven lower bound on the optimal objective. When the
	// search completed, Bound equals Obj up to the gap tolerance.
	Bound float64
	// Gap is (Obj − Bound) / max(1, |Obj|); zero when proven optimal. When
	// no incumbent exists (StatusNoSolution, StatusInfeasible) Gap is
	// +Inf, so "gap small enough" checks cannot mistake an empty-handed
	// stop for a proven-optimal one.
	Gap float64
	// Nodes is the number of branch-and-bound nodes solved.
	Nodes int
	// LPIters is the total number of simplex pivots across every LP the
	// search ran: the root relaxation, warm-started node re-solves, cold
	// retries after numerical trouble, and heuristic completion solves.
	// Nodes/LPIters together show how well the warm-start contract is
	// working: a healthy search spends a handful of dual pivots per node
	// because the basis factorization and eta file carry over across
	// SetBound calls.
	LPIters int
	// Exact is false if any node LP failed numerically and was skipped, in
	// which case Bound is best-effort rather than proven.
	Exact bool
}

// Options tune the branch-and-bound search. The zero value uses the
// defaults noted per field.
type Options struct {
	// TimeLimit bounds the wall-clock search time; 0 means no limit.
	TimeLimit time.Duration
	// MaxNodes bounds the number of nodes; 0 means 1 << 30.
	MaxNodes int
	// RelGap is the relative optimality gap at which the search stops
	// (default 1e-6). Zero selects the default; pass a negative value to
	// request an exact zero relative gap.
	RelGap float64
	// AbsGap is the absolute gap at which the search stops (default 1e-9).
	// Zero selects the default; negative requests an exact zero gap.
	AbsGap float64
	// IntTol is the integrality tolerance (default 1e-6). Zero selects the
	// default; negative requests exact integrality.
	IntTol float64
	// Rounding, if non-nil, receives the (fractional) relaxation solution
	// of a node and proposes values for the integer variables; the solver
	// fixes them, re-solves the continuous rest, and adopts the result as
	// incumbent when feasible and improving. Called at the root and every
	// roundingEvery nodes during the search.
	Rounding func(x []float64) []float64
	// MaxStallNodes, if positive, stops the search once this many nodes
	// have been explored without an incumbent improvement — an adaptive
	// stand-in for a time limit: easy instances converge and return in
	// seconds, hard ones keep the full budget.
	MaxStallNodes int
	// Priority, if non-nil, biases branching: until pseudocosts are
	// initialized, among fractional integer variables the one with the
	// highest priority is branched first, with fractionality as the
	// tie-break. Once the search has observed objective degradations, the
	// reliability-weighted pseudocost product becomes the primary key and
	// priority demotes to the tie-break — measured degradation beats the
	// static hint (see pseudocostVar). Indexed by variable; variables
	// without an entry default to 0.
	Priority []float64
	// Starts proposes initial values for the integer variables (same
	// semantics as Rounding proposals): the solver fixes them, solves the
	// continuous rest, and adopts the best feasible one as the first
	// incumbent. Callers use this to inject solutions from domain-specific
	// primal heuristics.
	Starts [][]float64
	// LP passes options through to the simplex solver. When TimeLimit or
	// Canceled is set, Solve chains its own stop hook onto LP.Canceled so
	// expiry and cancellation are detected inside every inner simplex solve,
	// within a bounded number of iterations — not just at node boundaries.
	LP simplex.Options
	// Canceled, when non-nil, is polled throughout the search (at node
	// boundaries and inside every inner LP solve). Once it returns true the
	// search stops and returns the best incumbent with its proven bound
	// (StatusFeasible), or StatusNoSolution when none was found yet — never
	// an error.
	Canceled func() bool
	// Checkpoint, when non-nil, periodically receives a Snapshot of the
	// search state: at node boundaries and — piggybacked on the same chunked
	// wall-clock polling that serves TimeLimit — inside long inner LP
	// solves, so even a single multi-minute LP checkpoints on schedule. The
	// callback observes the search without influencing it (the snapshot's
	// slices are copies), so a checkpointed solve is bit-identical to an
	// unobserved one. Called only from the goroutine driving Solve.
	Checkpoint func(Snapshot)
	// CheckpointEvery is the minimum interval between Checkpoint calls
	// (default 30s). Only consulted when Checkpoint is non-nil.
	CheckpointEvery time.Duration
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// roundingEvery is the node interval between Options.Rounding calls.
const roundingEvery = 50

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 1 << 30
	}
	o.RelGap = defaultOrZero(o.RelGap, 1e-6)
	o.AbsGap = defaultOrZero(o.AbsGap, 1e-9)
	o.IntTol = defaultOrZero(o.IntTol, 1e-6)
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 30 * time.Second
	}
	return o
}

// Snapshot is the warm-resume state a Checkpoint callback receives: the
// incumbent (a copy). It is enough to warm-resume a crashed search — inject
// X as a starting proposal and re-expand the frontier from the root —
// without journaling the entire open-node heap.
type Snapshot struct {
	// HasIncumbent reports whether X/Obj are meaningful.
	HasIncumbent bool
	// X is a copy of the incumbent solution (length NumVars).
	X []float64
	// Obj is the incumbent objective value.
	Obj float64
}

// defaultOrZero resolves the tolerance convention of Options: zero means
// the default, negative means an explicit zero (the zero value of a float
// field cannot otherwise express "no tolerance").
func defaultOrZero(v, def float64) float64 {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return def
	}
	return v
}

type fixing struct {
	j      int
	lb, ub float64
}

type node struct {
	path  []fixing // bound changes relative to the root
	bound float64  // LP bound inherited from the parent
	// Pseudocost bookkeeping: the branching that created this node. bvar is
	// -1 for the root; frac is the fractional part of bvar at the parent,
	// and parentObj the parent's LP objective, so the child's LP solve can
	// credit its objective degradation to bvar's up/down pseudocost.
	bvar      int
	up        bool
	frac      float64
	parentObj float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any          { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }
func (h nodeHeap) peekBound() float64 { return h[0].bound }
func (h nodeHeap) empty() bool        { return len(h) == 0 }

// Solve minimizes the LP p with the variables listed in intVars restricted
// to integer values. All integer variables must have finite bounds.
func Solve(p *simplex.Problem, intVars []int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	for _, j := range intVars {
		if j < 0 || j >= p.NumVars {
			return nil, fmt.Errorf("mip: integer variable %d outside [0,%d)", j, p.NumVars)
		}
		if math.IsInf(p.LB[j], -1) || math.IsInf(p.UB[j], 1) {
			return nil, fmt.Errorf("mip: integer variable %d must have finite bounds", j)
		}
	}
	ps := runPresolve(p, intVars, opt.IntTol, opt.Logf)
	if ps.infeasible {
		return &Result{Status: StatusInfeasible, Bound: math.Inf(1), Gap: math.Inf(1), Exact: true}, nil
	}
	work := ps.reduced
	if work.NumVars == 0 {
		// Presolve solved the whole problem: every variable is fixed and
		// every row verified against the fixings.
		x := ps.restore(nil)
		return &Result{Status: StatusOptimal, X: x, Obj: ps.objOff, Bound: ps.objOff, Exact: true}, nil
	}
	s := &search{
		opt: opt, p: work, ps: ps,
		intVars:      ps.intVars,
		exact:        true,
		skippedBound: math.Inf(1),
	}
	s.initPriority()
	s.initPseudocost()
	if opt.TimeLimit > 0 {
		s.deadline = time.Now().Add(opt.TimeLimit)
	}
	if opt.Checkpoint != nil {
		// Start the interval now so the first mid-solve checkpoint fires
		// after CheckpointEvery, not immediately.
		s.lastCkpt = time.Now()
	}
	// Chain the search's stop conditions into the LP options before any
	// simplex solver is built (s.lp here, s.heur lazily), so a deadline or a
	// caller cancellation interrupts even a single long LP solve.
	s.opt.LP.Canceled = s.lpStopHook(s.opt.LP.Canceled)
	var err error
	s.lp, err = simplex.NewSolver(work, s.opt.LP)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// lpStopHook builds the cancellation hook threaded into every inner simplex
// solve: any caller-provided hooks are consulted on every poll, and the
// wall-clock deadline every pollEvery-th poll, so a TimeLimit expiry is
// detected within a bounded number of simplex iterations even in the middle
// of one LP solve. The same chunked clock reads drive the periodic
// Checkpoint callback, so a long LP checkpoints on schedule without extra
// instrumentation. When the search has no stop conditions and no checkpoint
// hook the caller's hook (possibly nil) is returned unchanged, keeping
// budget-free solves free of clock reads and bit-identical to earlier
// versions. The closure is only ever called from the goroutine driving this
// Solve, so the plain counter is safe.
func (s *search) lpStopHook(inner func() bool) func() bool {
	if s.deadline.IsZero() && s.opt.Canceled == nil && s.opt.Checkpoint == nil {
		return inner
	}
	const pollEvery = 32
	polls := 0
	return func() bool {
		if inner != nil && inner() {
			return true
		}
		if s.opt.Canceled != nil && s.opt.Canceled() {
			return true
		}
		if s.deadline.IsZero() && s.opt.Checkpoint == nil {
			return false
		}
		polls++
		if polls%pollEvery != 0 {
			return false
		}
		now := time.Now()
		s.maybeCheckpoint(now)
		return !s.deadline.IsZero() && now.After(s.deadline)
	}
}

// maybeCheckpoint invokes the Checkpoint callback when at least
// CheckpointEvery has elapsed since the last one. Called only from the
// goroutine driving this Solve; the callback observes a copy of the
// incumbent and cannot perturb the search.
func (s *search) maybeCheckpoint(now time.Time) {
	if s.opt.Checkpoint == nil || now.Sub(s.lastCkpt) < s.opt.CheckpointEvery {
		return
	}
	s.lastCkpt = now
	s.opt.Checkpoint(s.snapshot())
}

// snapshot captures the warm-resume state of the search.
func (s *search) snapshot() Snapshot {
	snap := Snapshot{HasIncumbent: s.hasInc}
	if s.hasInc {
		// Everything the snapshot exposes is in the caller's coordinates: X
		// at the caller's NumVars, the objective with the presolve offset
		// folded back in.
		snap.X = append([]float64(nil), s.ps.restore(s.incumbent)...)
		snap.Obj = s.incObj + s.ps.objOff
	}
	return snap
}

type search struct {
	opt Options
	// p is the problem the search actually explores, the presolve-reduced
	// problem. Every internal slice (incumbent, proposals, priorities) lives
	// in p's coordinates; translation to/from the caller's coordinates
	// happens at the boundaries, through ps (restore, reduceProposal,
	// origCol); internal objectives and bounds likewise exclude the
	// eliminated variables, and reported ones add ps.objOff.
	p        *simplex.Problem
	ps       *presolveInfo
	intVars  []int
	lp       *simplex.Solver // tree solver, bounds mutated per node
	heur     *simplex.Solver // lazily created solver for rounding probes
	heurDead bool            // heuristic solver construction failed; stop retrying
	prio     []float64       // branching priorities in p's coordinates

	// Pseudocost state, indexed in p's coordinates: cumulative per-unit
	// objective degradations and observation counts per branching direction,
	// plus the global aggregate used as the reliability prior.
	pcDownSum, pcUpSum []float64
	pcDownCnt, pcUpCnt []int
	pcSum              float64
	pcCnt              int

	incumbent   []float64
	incObj      float64
	hasInc      bool
	lastCkpt    time.Time // last Checkpoint callback (driving goroutine only)
	nodes       int
	lpIters     int // simplex pivots across all inner LP solves
	lastImprove int // node count at the last incumbent improvement
	exact       bool
	// skippedBound is the smallest inherited LP bound over the subtrees
	// skipped after a node-LP failure (+Inf if none). A parent's relaxation
	// bound remains valid for its subtree, so folding it into the global
	// bound keeps the reported Bound honest when exact is false.
	skippedBound float64
	deadline     time.Time
}

func (s *search) timedOut() bool {
	return !s.deadline.IsZero() && time.Now().After(s.deadline)
}

// stopped reports whether the search should wind down: deadline expiry or
// caller cancellation. The search then returns its best incumbent and
// proven bound instead of an error.
func (s *search) stopped() bool {
	return s.timedOut() || (s.opt.Canceled != nil && s.opt.Canceled())
}

func (s *search) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// applyPath resets every integer variable to its root bounds and then
// applies the node's fixings.
func (s *search) applyPath(path []fixing) {
	for _, j := range s.intVars {
		s.lp.SetBound(j, s.p.LB[j], s.p.UB[j])
	}
	for _, f := range path {
		s.lp.SetBound(f.j, f.lb, f.ub)
	}
}

// initPriority maps the caller's branching priorities into p's coordinates.
func (s *search) initPriority() {
	if s.opt.Priority == nil {
		return
	}
	s.prio = make([]float64, s.p.NumVars)
	for r, j := range s.ps.origCol {
		if j < len(s.opt.Priority) {
			s.prio[r] = s.opt.Priority[j]
		}
	}
}

func (s *search) prioOf(j int) float64 {
	if j < len(s.prio) {
		return s.prio[j]
	}
	return 0
}

// initPseudocost sizes the pseudocost accumulators.
func (s *search) initPseudocost() {
	n := s.p.NumVars
	s.pcDownSum = make([]float64, n)
	s.pcUpSum = make([]float64, n)
	s.pcDownCnt = make([]int, n)
	s.pcUpCnt = make([]int, n)
}

// creditPseudocost records one observed per-unit objective degradation for
// branching variable j in the given direction.
func (s *search) creditPseudocost(j int, up bool, perUnit float64) {
	if up {
		s.pcUpSum[j] += perUnit
		s.pcUpCnt[j]++
	} else {
		s.pcDownSum[j] += perUnit
		s.pcDownCnt[j]++
	}
	s.pcSum += perUnit
	s.pcCnt++
}

// fractionalVar selects the branching variable among the fractional integer
// variables of x, or returns -1 if the relaxation is integral within
// tolerance. Before any objective degradation has been observed the choice
// is by priority with fractionality as the tie-break (the most-fractional
// rule). Once pseudocosts carry data the reliability-weighted product score
// takes over as the primary key (priority demotes to the tie-break): on the
// allocation subproblems the caller's expected-load priorities nearly
// totally order the candidates, and keeping them primary would mute the
// pseudocosts to tie-breaking among a query's subnode copies — measured
// bound movement has to outrank the static hint for the tree to collapse.
func (s *search) fractionalVar(x []float64) int {
	if s.pcCnt > 0 {
		return s.pseudocostVar(x)
	}
	best := -1
	var bestPrio, bestDist float64
	for _, j := range s.intVars {
		frac := x[j] - math.Floor(x[j])
		dist := math.Min(frac, 1-frac)
		if dist <= s.opt.IntTol {
			continue
		}
		prio := s.prioOf(j)
		//fragvet:ignore floatcmp — exact tie-break between verbatim copies of the same stored priority values; no arithmetic precedes the compare
		if best == -1 || prio > bestPrio || (prio == bestPrio && dist > bestDist) {
			best, bestPrio, bestDist = j, prio, dist
		}
	}
	return best
}

// pcReliability is the shrinkage weight of the reliability prior: a
// variable's pseudocost average is blended with the global average until it
// has accumulated about this many observations of its own.
const pcReliability = 4.0

// pseudocostVar scores each fractional candidate by the product of its
// shrunk up/down pseudocosts weighted by the distance each child must move,
// the classic product rule: it prefers variables whose *both* children
// degrade the objective, which is what prunes subtrees early.
func (s *search) pseudocostVar(x []float64) int {
	prior := s.pcSum / float64(s.pcCnt)
	best := -1
	var bestPrio, bestScore float64
	for _, j := range s.intVars {
		frac := x[j] - math.Floor(x[j])
		dist := math.Min(frac, 1-frac)
		if dist <= s.opt.IntTol {
			continue
		}
		prio := s.prioOf(j)
		down := (s.pcDownSum[j] + pcReliability*prior) / (float64(s.pcDownCnt[j]) + pcReliability)
		up := (s.pcUpSum[j] + pcReliability*prior) / (float64(s.pcUpCnt[j]) + pcReliability)
		score := math.Max(1e-12, down*frac) * math.Max(1e-12, up*(1-frac))
		//fragvet:ignore floatcmp — exact tie-break between verbatim copies of the same stored priority values; no arithmetic precedes the compare
		if best == -1 || score > bestScore || (score == bestScore && prio > bestPrio) {
			best, bestPrio, bestScore = j, prio, score
		}
	}
	return best
}

// tryRounding asks the caller heuristic for an integral proposal and
// evaluates it via tryProposal. The heuristic sees (and answers in) the
// caller's original coordinates; x is in p's coordinates.
func (s *search) tryRounding(x []float64) {
	if s.opt.Rounding == nil {
		return
	}
	s.tryProposal(s.ps.reduceProposal(s.opt.Rounding(s.ps.restore(x))))
}

// tryProposal completes an integral proposal (in p's coordinates) by
// solving the continuous remainder, and updates the incumbent when feasible
// and improving.
func (s *search) tryProposal(proposal []float64) {
	if proposal == nil {
		return
	}
	if s.heur == nil {
		if s.heurDead {
			return
		}
		var err error
		s.heur, err = simplex.NewSolver(s.p, s.opt.LP)
		if err != nil {
			// Construction depends only on the problem, so retrying on the
			// next proposal would fail (and swallow the error) identically.
			// Disable the heuristic and say so once instead of dying silently.
			s.heurDead = true
			s.logf("mip: rounding heuristic disabled, solver construction failed: %v", err)
			return
		}
	}
	for _, j := range s.intVars {
		v := math.Round(proposal[j])
		if v < s.p.LB[j] || v > s.p.UB[j] {
			return // proposal violates root bounds
		}
		s.heur.SetBound(j, v, v)
	}
	res := s.heur.ReSolveDual()
	s.lpIters += res.Iters
	if res.Status != simplex.StatusOptimal {
		return
	}
	if !s.hasInc || res.Obj < s.incObj-s.opt.AbsGap {
		// Copy, like accept: the heuristic solver is re-solved for later
		// proposals, and an aliased incumbent would silently corrupt if the
		// solver ever reused its solution buffer.
		s.incumbent = append([]float64(nil), res.X...)
		s.incObj = res.Obj
		s.hasInc = true
		s.lastImprove = s.nodes
		s.logf("mip: rounding incumbent obj=%.6f", res.Obj+s.ps.objOff)
	}
}

// accept adopts an improving integral node solution as the incumbent.
func (s *search) accept(x []float64, obj float64) {
	if !s.hasInc || obj < s.incObj-s.opt.AbsGap {
		s.incumbent = append([]float64(nil), x...)
		s.incObj = obj
		s.hasInc = true
		s.lastImprove = s.nodes
		s.logf("mip: incumbent obj=%.6f after %d nodes", obj+s.ps.objOff, s.nodes)
	}
}

func (s *search) gapClosed(bound float64) bool {
	if !s.hasInc {
		return false
	}
	gap := s.incObj - bound
	// The relative denominator uses the objective on the caller's scale:
	// presolve may have moved most of the objective into the constant
	// offset, and a gap relative to the reduced remainder would be a far
	// stricter (and surprising) criterion.
	return gap <= s.opt.AbsGap || gap <= s.opt.RelGap*math.Max(1, math.Abs(s.incObj+s.ps.objOff))
}

func (s *search) result(status Status, bound float64) *Result {
	off := s.ps.objOff
	r := &Result{Status: status, Nodes: s.nodes, LPIters: s.lpIters, Bound: bound + off, Exact: s.exact}
	if s.hasInc {
		r.X = s.ps.restore(s.incumbent)
		r.Obj = s.incObj + off
		r.Gap = math.Max(0, (s.incObj-bound)/math.Max(1, math.Abs(s.incObj+off)))
		if status == StatusOptimal {
			r.Bound = r.Obj
			r.Gap = 0
		}
	} else {
		// No incumbent: there is no finite gap to report. +Inf (rather than
		// the zero value) keeps StatusNoSolution/StatusInfeasible results
		// from masquerading as gap-zero proven-optimal ones.
		r.Gap = math.Inf(1)
	}
	return r
}

func (s *search) run() (*Result, error) {
	// Root relaxation.
	res := s.lp.Solve()
	s.nodes++
	s.lpIters += res.Iters
	switch res.Status {
	case simplex.StatusInfeasible:
		return s.result(StatusInfeasible, math.Inf(1)), nil
	case simplex.StatusUnbounded:
		return s.result(StatusUnbounded, math.Inf(-1)), nil
	case simplex.StatusCanceled:
		// Stopped before any incumbent or proven bound exists: not an
		// error, just an empty-handed stop.
		return s.result(StatusNoSolution, math.Inf(-1)), nil
	case simplex.StatusOptimal:
	default:
		return nil, fmt.Errorf("mip: root relaxation failed with status %v", res.Status)
	}
	rootBound := res.Obj
	s.logf("mip: root relaxation obj=%.6f after %d iters", res.Obj+s.ps.objOff, res.Iters)
	for _, start := range s.opt.Starts {
		s.tryProposal(s.ps.reduceProposal(start))
	}
	s.tryRounding(res.X)

	open := &nodeHeap{}
	heap.Init(open)
	heap.Push(open, &node{bound: rootBound, bvar: -1})

	for !open.empty() {
		if s.opt.Checkpoint != nil {
			s.maybeCheckpoint(time.Now())
		}
		globalBound := math.Min(open.peekBound(), s.skippedBound)
		if s.hasInc {
			globalBound = math.Min(globalBound, s.incObj)
		}
		if s.gapClosed(globalBound) {
			if s.exact {
				return s.result(StatusOptimal, globalBound), nil
			}
			// A node LP failed and its subtree was skipped: the incumbent
			// may close the gap against the surviving bounds, but the search
			// was not exhaustive, so claim no more than feasibility.
			return s.result(StatusFeasible, globalBound), nil
		}
		stalled := s.opt.MaxStallNodes > 0 && s.hasInc && s.nodes-s.lastImprove > s.opt.MaxStallNodes
		if s.stopped() || s.nodes >= s.opt.MaxNodes || stalled {
			if s.hasInc {
				return s.result(StatusFeasible, globalBound), nil
			}
			return s.result(StatusNoSolution, globalBound), nil
		}
		nd := heap.Pop(open).(*node)
		if s.hasInc && nd.bound >= s.incObj-s.opt.AbsGap {
			continue // pruned by bound
		}
		s.plunge(nd, open)
	}
	if s.hasInc {
		if s.exact {
			return s.result(StatusOptimal, s.incObj), nil
		}
		// Heap drained but a subtree was skipped after a node-LP failure:
		// the incumbent is feasible, the bound best-effort (the skipped
		// subtree's inherited parent bound), not proven optimal.
		return s.result(StatusFeasible, math.Min(s.skippedBound, s.incObj)), nil
	}
	if s.exact {
		return s.result(StatusInfeasible, math.Inf(1)), nil
	}
	// No incumbent and a skipped subtree: the skipped part may well contain
	// feasible points, so infeasibility is not proven either.
	return s.result(StatusNoSolution, s.skippedBound), nil
}

// plunge solves nd and then repeatedly descends into the child whose bound
// looks most promising, pushing the sibling onto the heap, until the dive
// is pruned, integral, or infeasible.
func (s *search) plunge(nd *node, open *nodeHeap) {
	s.applyPath(nd.path)
	for {
		res := s.lp.ReSolveDual()
		s.nodes++
		s.lpIters += res.Iters
		if res.Status != simplex.StatusOptimal && res.Status != simplex.StatusInfeasible && res.Status != simplex.StatusCanceled {
			// Numerical trouble or iteration limit: retry from a fresh
			// basis before giving up on the subtree.
			res = s.lp.Solve()
			s.lpIters += res.Iters
		}
		if res.Status == simplex.StatusCanceled {
			// The node is unexplored, not failed: push it back so its bound
			// stays visible to run(), which will wind the search down.
			heap.Push(open, &node{path: clonePath(nd.path), bound: nd.bound, bvar: -1})
			return
		}
		if res.Status == simplex.StatusInfeasible {
			return
		}
		if res.Status != simplex.StatusOptimal {
			// Still failing: skip this subtree and mark the search as
			// inexact. The subtree keeps contributing its inherited parent
			// bound to the global bound so we never over-claim.
			s.exact = false
			s.skippedBound = math.Min(s.skippedBound, nd.bound)
			s.logf("mip: node LP status %v at node %d; subtree skipped", res.Status, s.nodes)
			return
		}
		bound := res.Obj
		if nd.bvar >= 0 {
			// Credit the objective degradation of this child LP to the
			// branching that created it, normalized by how far the branching
			// moved the variable (frac down, 1−frac up).
			dist := nd.frac
			if nd.up {
				dist = 1 - nd.frac
			}
			if dist > s.opt.IntTol {
				s.creditPseudocost(nd.bvar, nd.up, math.Max(0, bound-nd.parentObj)/dist)
			}
			nd.bvar = -1 // credit once, not on every dive iteration
		}
		s.logf("mip: node %d depth %d obj=%.6f iters=%d", s.nodes, len(nd.path), res.Obj+s.ps.objOff, res.Iters)
		if s.hasInc && bound >= s.incObj-s.opt.AbsGap {
			return // pruned
		}
		branch := s.fractionalVar(res.X)
		if branch == -1 {
			s.accept(res.X, bound)
			return
		}
		if s.opt.Rounding != nil && s.nodes%roundingEvery == 0 {
			s.tryRounding(res.X)
		}
		if s.stopped() || s.nodes >= s.opt.MaxNodes {
			// Push the node back so its bound stays visible to run().
			heap.Push(open, &node{path: clonePath(nd.path), bound: bound, bvar: -1})
			return
		}
		v := res.X[branch]
		floor, ceil := math.Floor(v), math.Ceil(v)
		frac := v - floor
		downFirst := frac <= ceil-v
		lb, ub := s.lp.Bounds(branch)

		downPath := append(clonePath(nd.path), fixing{branch, lb, floor})
		upPath := append(clonePath(nd.path), fixing{branch, ceil, ub})
		down := &node{path: downPath, bound: bound, bvar: branch, up: false, frac: frac, parentObj: bound}
		up := &node{path: upPath, bound: bound, bvar: branch, up: true, frac: frac, parentObj: bound}
		var dive, sibling *node
		if downFirst {
			dive, sibling = down, up
		} else {
			dive, sibling = up, down
		}
		heap.Push(open, sibling)
		nd = dive
		// Apply only the new fixing; the rest of the path is already set.
		f := nd.path[len(nd.path)-1]
		s.lp.SetBound(f.j, f.lb, f.ub)
	}
}

func clonePath(p []fixing) []fixing {
	return append(make([]fixing, 0, len(p)+1), p...)
}
