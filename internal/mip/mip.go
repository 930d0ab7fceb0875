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
//   - a root relaxation that starts from a caller's basis (Options.RootBasis,
//     typically the optimal basis of a relaxation with the same columns)
//     instead of solving cold: the basis is mapped through presolve — a
//     removed row that was tight demotes one basic column of its row to the
//     bound that keeps it tight — and simplex.Solver.SolveFrom solves the
//     root again cold when the start does not stand,
//   - best-first node selection with depth-first plunging; a plunge child
//     re-solves from the tree solver's state, a node popped off the heap
//     from its parent's optimal basis, judged like the root's start,
//   - reliability-weighted pseudocost branching with a most-fractional
//     fallback until degradation observations exist,
//   - an optional caller-supplied rounding heuristic whose proposals become
//     incumbents: a proposal that already is a complete point of the
//     problem — every bound and row checked at simplex.FeasTol — is priced
//     as it stands, any other is completed by an LP over the continuous
//     variables with its integer entries fixed, and
//   - node budgets with proven-bound and gap reporting, so callers can
//     trade solution quality for work exactly like the paper trades Gurobi
//     time for memory quality, with answers that no machine load changes.
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

// Stop says why a search ended.
type Stop int

const (
	StopNone     Stop = iota // no search ended: Solve returned an error, or the Result is not Solve's
	StopDrained              // no open node was left, or presolve or the root relaxation settled the problem
	StopGap                  // the incumbent closed the gap against the open nodes' bounds
	StopNodes                // the search used up MaxNodes
	StopStall                // MaxStallNodes nodes passed without an improvement
	StopCanceled             // Canceled returned true
)

var stopNames = [...]string{"none", "drained", "gap", "nodes", "stall", "canceled"}

func (s Stop) String() string { return stopNames[s] }

// Result reports the incumbent and the proven bound.
type Result struct {
	Status Status
	// Stop says why the search ended, which StatusFeasible alone does not.
	Stop Stop
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
	// retries after numerical trouble, and heuristic completion solves (a
	// proposal priced as it stands runs no LP and adds nothing).
	// Nodes/LPIters together show how well the warm-start contract is
	// working: a healthy search spends a handful of dual pivots per node
	// because the basis factorization and eta file carry over across
	// SetBound calls.
	LPIters int
	// Exact is false if any node LP failed numerically and was skipped, in
	// which case Bound is best-effort rather than proven.
	Exact bool
	// Starts counts the LPs of the search that started from a basis.
	Starts Starts
	// First is the index of the Options.Starts entry whose point was the
	// incumbent when node search began, or -1 when none was: no start was
	// feasible, the root rounding beat them, or no search ran.
	First int
}

// Starts counts the LP solves of a search that began from a basis instead
// of cold: the root relaxation from Options.RootBasis, and every node popped
// off the open heap from its parent's optimal basis. Roots and Nodes count
// the starts that stood; RootsCold and NodesCold those that the solver's
// ladder restarted cold, a start SolveFrom refused among them, so their LP
// was in fact solved cold (see CountStart).
type Starts struct {
	Roots     int `json:"roots"`
	RootsCold int `json:"roots_cold"`
	Nodes     int `json:"nodes"`
	NodesCold int `json:"nodes_cold"`
}

// CountStart counts a SolveFrom start that ended in res: cold when its
// ladder restarted it cold, stood when it ran from the basis throughout,
// neither when canceled before a verdict. It returns Recovery.Refused.
func CountStart(res *simplex.Result, stood, cold *int) (refused string) {
	rec := res.Recovery
	switch {
	case rec != nil && rec.Refused != "":
		*cold++
		return rec.Refused
	case res.Status == simplex.StatusCanceled:
	case rec != nil && rec.Restarts > 0:
		*cold++
	default:
		*stood++
	}
	return ""
}

// Options tune the branch-and-bound search. The zero value uses the
// defaults noted per field.
type Options struct {
	// MaxNodes, the search's one budget, bounds the number of nodes; 0
	// means 1 << 30. NodeBudget converts a duration to it.
	MaxNodes int
	// RelGap is the relative optimality gap at which the search stops
	// (default 1e-6). Zero selects the default; pass a negative value to
	// request an exact zero relative gap.
	RelGap float64
	// Rounding, if non-nil, receives the (fractional) relaxation solution
	// of a node and proposes a point. The solver rounds its integer
	// entries; if the whole vector then satisfies every bound and row, it
	// is priced as it stands and no LP runs — the caller vouches that its
	// continuous entries are the completion it wants. Otherwise the solver
	// fixes the integer entries, re-solves the continuous rest, and keeps
	// that completion only if it satisfies every row too. Either way the
	// point becomes the incumbent when it improves on it. Called at the
	// root and every roundingEvery nodes during the search.
	Rounding func(x []float64) []float64
	// MaxStallNodes, if positive, stops the search once this many nodes
	// have been explored without an incumbent improvement, so easy
	// instances return long before MaxNodes and hard ones keep the full
	// budget.
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
	// Starts proposes initial points, with the semantics of Rounding
	// proposals: a complete feasible point is priced as it stands, any
	// other is completed over its continuous rest, and the best becomes the
	// first incumbent. Callers use this to inject solutions from
	// domain-specific primal heuristics.
	Starts [][]float64
	// RootBasis, when non-nil, is a basis of the problem in the caller's
	// coordinates — typically the optimal basis of a relaxation with the
	// same columns — that the root relaxation starts from instead of
	// solving cold (simplex.Solver.SolveFrom, after presolve's mapping).
	// SolveFrom refuses a start that does not stand and solves the root
	// again cold. Nil solves the root cold.
	RootBasis *simplex.Basis
	// LP passes options through to the simplex solvers of the search. Its
	// Canceled is replaced inside a search: Solve installs the search's one
	// stop hook there, so a caller's LP hook is never polled by Solve.
	LP simplex.Options
	// Canceled, when non-nil, is polled once per call of the search's one
	// stop hook, which the node loop and every LP solve of the search call.
	// Once it returns true the search stops and returns the best incumbent
	// with its proven bound (StatusFeasible), or StatusNoSolution when none
	// was found yet — never an error.
	Canceled func() bool
	// Checkpoint, when non-nil, receives a copy of the incumbent, in the
	// caller's coordinates, once CheckpointEvery has passed since the last
	// call, judged on a clock reading the stop hook takes every 32nd poll
	// (see Canceled), inside long LP solves too, so even a single
	// multi-minute LP checkpoints on schedule. It is not called while the
	// search has no incumbent. The callback observes the search without
	// influencing it, so a checkpointed solve is bit-identical to an
	// unobserved one. Called only from the goroutine driving Solve.
	Checkpoint func(x []float64)
	// CheckpointEvery is the minimum interval between Checkpoint calls
	// (default 30s), the search's one use of the clock. Only consulted
	// when Checkpoint is non-nil. Every journalled solve — allocate,
	// paper, allocd — runs at the default; only tests shorten it.
	CheckpointEvery time.Duration
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

const (
	// roundingEvery is the node interval between Options.Rounding calls.
	roundingEvery = 50
	// absGap is the absolute gap at which the search stops, beside the
	// relative Options.RelGap; intTol is the integrality tolerance.
	absGap = 1e-9
	intTol = 1e-6
	// maxNodes is MaxNodes' default and NodeBudget's cap.
	maxNodes = 1 << 30
)

// NodesPerSecond is NodeBudget's fixed rate: the median mip.nodes_per_s of
// the three table rows in `go run ./bench trace -seed 1` (123.6, 365.2 and
// 103.9/s on a 2-core Intel Xeon at GOMAXPROCS 1, go1.24).
const NodesPerSecond = 124

// NodeBudget converts a duration to MaxNodes at NodesPerSecond, rounding up
// so that any positive duration buys a node; 0 or less is 0, no limit, and
// a count past 1 << 30 is capped there.
func NodeBudget(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	if d >= maxNodes*time.Second/NodesPerSecond {
		return maxNodes
	}
	return int((d*NodesPerSecond + time.Second - 1) / time.Second)
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = maxNodes
	}
	// A float field's zero value cannot say "no gap", so zero means the
	// default and a negative value an explicit zero.
	switch {
	case o.RelGap < 0:
		o.RelGap = 0
	case o.RelGap == 0:
		o.RelGap = 1e-6
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 30 * time.Second
	}
	return o
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
	// basis is the parent's optimal basis, which a node popped off the
	// heap starts from; nil for the root and for a plunge child, which
	// continues from the tree solver's state, so a parent costs at most
	// one Basis.
	basis *simplex.Basis
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
// to integer values. All integer variables must have finite bounds. When the
// root relaxation fails, the error comes with a result that counts the work
// it took (LPIters, Starts).
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
	ps := runPresolve(p, intVars, opt.Logf)
	if ps.infeasible {
		return &Result{Status: StatusInfeasible, Stop: StopDrained, Bound: math.Inf(1), Gap: math.Inf(1), Exact: true, First: -1}, nil
	}
	work := ps.reduced
	if work.NumVars == 0 {
		// Presolve solved the whole problem: every variable is fixed and
		// every row verified against the fixings.
		x := ps.restore(nil)
		return &Result{Status: StatusOptimal, Stop: StopDrained, X: x, Obj: ps.objOff, Bound: ps.objOff, Exact: true, First: -1}, nil
	}
	s := &search{
		opt: opt, p: work, ps: ps,
		rootBasis:    ps.reduceBasis(p, opt.RootBasis),
		intVars:      ps.intVars,
		exact:        true,
		skippedBound: math.Inf(1),
		first:        -1,
	}
	s.initPriority()
	s.initPseudocost()
	// The first Checkpoint comes CheckpointEvery after the start.
	s.lastCkpt = time.Now()
	// Every LP the search builds (s.lp here, s.heur lazily) polls the
	// search's one stop hook, so a caller cancellation interrupts even a
	// single long LP solve.
	s.opt.LP.Canceled = s.stop
	var err error
	s.lp, err = simplex.NewSolver(work, s.opt.LP)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// pollEvery is the number of stop polls between two clock readings.
const pollEvery = 32

// stop is the search's one stop hook: the node loop calls it, and Solve
// installs it as LP.Canceled, so every LP of the search polls it too. Each
// call polls Options.Canceled once. Every pollEvery-th call with a
// Checkpoint installed and an incumbent reads the clock and, once
// CheckpointEvery has passed since the last call, hands the callback a
// fresh copy of the incumbent (restore allocates), so even one long LP
// checkpoints on schedule; the callback cannot perturb the search. Called
// only from the goroutine driving this Solve, so the plain counter is safe.
func (s *search) stop() bool {
	if s.opt.Canceled != nil && s.opt.Canceled() {
		return true
	}
	if s.polls++; s.polls%pollEvery == 0 && s.opt.Checkpoint != nil && s.hasInc {
		if now := time.Now(); now.Sub(s.lastCkpt) >= s.opt.CheckpointEvery {
			s.lastCkpt = now
			s.opt.Checkpoint(s.ps.restore(s.incumbent))
		}
	}
	return false
}

type search struct {
	opt Options
	// p is the problem the search actually explores, the presolve-reduced
	// problem. Every internal slice (incumbent, proposals, priorities) lives
	// in p's coordinates; translation to/from the caller's coordinates
	// happens at the boundaries, through ps (restore, reduceProposal,
	// origCol); internal objectives and bounds likewise exclude the
	// eliminated variables, and reported ones add ps.objOff.
	p         *simplex.Problem
	ps        *presolveInfo
	intVars   []int
	lp        *simplex.Solver // tree solver, bounds mutated per node
	heur      *simplex.Solver // lazily created solver for rounding probes
	heurDead  bool            // heuristic solver construction failed; stop retrying
	rootBasis *simplex.Basis  // Options.RootBasis in p's coordinates, or nil
	prio      []float64       // branching priorities in p's coordinates

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
	starts      Starts
	lastImprove int // node count at the last incumbent improvement
	exact       bool
	// skippedBound is the smallest inherited LP bound over the subtrees
	// skipped after a node-LP failure (+Inf if none). A parent's relaxation
	// bound remains valid for its subtree, so folding it into the global
	// bound keeps the reported Bound honest when exact is false.
	skippedBound float64
	polls        int // stop calls, for the pollEvery clock cadence
	first        int // Result.First
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
		if dist <= intTol {
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
		if dist <= intTol {
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
// evaluates it via tryProposal, reporting whether it became the incumbent.
// The heuristic sees (and answers in) the caller's original coordinates; x
// is in p's coordinates.
func (s *search) tryRounding(x []float64) bool {
	if s.opt.Rounding == nil {
		return false
	}
	return s.tryProposal(s.ps.reduceProposal(s.opt.Rounding(s.ps.restore(x))))
}

// tryProposal turns a proposal (in p's coordinates, owned by the search)
// into an incumbent candidate. Its integer entries are rounded and must lie
// within their root bounds. A proposal that then satisfies every bound and
// row of p already is a point of the problem and is priced as it stands;
// any other has its integer entries fixed and the continuous remainder
// solved, and that completion is kept only if it satisfies every row too.
// It reports whether the proposal became the incumbent.
func (s *search) tryProposal(proposal []float64) bool {
	if proposal == nil {
		return false
	}
	for _, j := range s.intVars {
		v := math.Round(proposal[j])
		if v < s.p.LB[j] || v > s.p.UB[j] {
			return false // proposal violates root bounds
		}
		proposal[j] = v
	}
	if s.p.Satisfies(proposal) {
		return s.accept(proposal, s.objective(proposal))
	}
	if s.heur == nil {
		if s.heurDead {
			return false
		}
		var err error
		s.heur, err = simplex.NewSolver(s.p, s.opt.LP)
		if err != nil {
			// Construction depends only on the problem, so retrying on the
			// next proposal would fail (and swallow the error) identically.
			// Disable the heuristic and say so once instead of dying silently.
			s.heurDead = true
			s.logf("mip: rounding heuristic disabled, solver construction failed: %v", err)
			return false
		}
	}
	for _, j := range s.intVars {
		s.heur.SetBound(j, proposal[j], proposal[j])
	}
	res := s.heur.ReSolveDual()
	s.lpIters += res.Iters
	if res.Status != simplex.StatusOptimal {
		return false
	}
	if !s.p.Satisfies(res.X) {
		// The simplex can report StatusOptimal for a point that violates
		// its own rows; such a completion is no incumbent.
		s.logf("mip: rounding completion violates a row of the problem; refused")
		return false
	}
	return s.accept(res.X, res.Obj)
}

// objective is cᵀx over p's columns in index order, zero costs skipped: the
// fold the simplex applies to its own points, so a proposal priced here and
// an LP completion at the same point agree bit for bit.
func (s *search) objective(x []float64) float64 {
	var obj float64
	for j, c := range s.p.Obj {
		if c != 0 {
			obj += c * x[j]
		}
	}
	return obj
}

// accept adopts an improving point — an integral node solution or a
// proposal — as the incumbent. x is copied: the heuristic solver is
// re-solved for later proposals, and an aliased incumbent would silently
// corrupt if the solver ever reused its solution buffer. It reports
// whether x was adopted.
func (s *search) accept(x []float64, obj float64) bool {
	if !s.hasInc || obj < s.incObj-absGap {
		s.incumbent = append([]float64(nil), x...)
		s.incObj = obj
		s.hasInc = true
		s.lastImprove = s.nodes
		s.logf("mip: incumbent obj=%.6f after %d nodes", obj+s.ps.objOff, s.nodes)
		return true
	}
	return false
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
	return gap <= absGap || gap <= s.opt.RelGap*math.Max(1, math.Abs(s.incObj+s.ps.objOff))
}

func (s *search) result(status Status, stop Stop, bound float64) *Result {
	off := s.ps.objOff
	r := &Result{Status: status, Stop: stop, Nodes: s.nodes, LPIters: s.lpIters, Bound: bound + off, Exact: s.exact, Starts: s.starts, First: s.first}
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
	res := s.solveRoot()
	s.nodes++
	switch res.Status {
	case simplex.StatusInfeasible:
		return s.result(StatusInfeasible, StopDrained, math.Inf(1)), nil
	case simplex.StatusUnbounded:
		return s.result(StatusUnbounded, StopDrained, math.Inf(-1)), nil
	case simplex.StatusCanceled:
		// Stopped before any incumbent or proven bound exists: not an
		// error, just an empty-handed stop.
		return s.result(StatusNoSolution, StopCanceled, math.Inf(-1)), nil
	case simplex.StatusOptimal:
	default:
		return s.result(StatusNoSolution, StopNone, math.Inf(-1)), fmt.Errorf("mip: root relaxation failed with status %v", res.Status)
	}
	rootBound := res.Obj
	start := "cold"
	if s.starts.Roots > 0 {
		start = "from basis"
	}
	s.logf("mip: root relaxation obj=%.6f after %d iters, %s", res.Obj+s.ps.objOff, res.Iters, start)
	for i, start := range s.opt.Starts {
		if s.tryProposal(s.ps.reduceProposal(start)) {
			s.first = i
		}
	}
	if s.tryRounding(res.X) {
		s.first = -1
	}

	open := &nodeHeap{}
	heap.Init(open)
	heap.Push(open, &node{bound: rootBound, bvar: -1})

	for !open.empty() {
		globalBound := math.Min(open.peekBound(), s.skippedBound)
		if s.hasInc {
			globalBound = math.Min(globalBound, s.incObj)
		}
		if s.gapClosed(globalBound) {
			if s.exact {
				return s.result(StatusOptimal, StopGap, globalBound), nil
			}
			// A node LP failed and its subtree was skipped: the incumbent
			// may close the gap against the surviving bounds, but the search
			// was not exhaustive, so claim no more than feasibility.
			return s.result(StatusFeasible, StopGap, globalBound), nil
		}
		stop := StopNone
		switch {
		case s.stop():
			stop = StopCanceled
		case s.nodes >= s.opt.MaxNodes:
			stop = StopNodes
		case s.opt.MaxStallNodes > 0 && s.hasInc && s.nodes-s.lastImprove > s.opt.MaxStallNodes:
			stop = StopStall
		}
		if stop != StopNone {
			if s.hasInc {
				return s.result(StatusFeasible, stop, globalBound), nil
			}
			return s.result(StatusNoSolution, stop, globalBound), nil
		}
		nd := heap.Pop(open).(*node)
		if s.hasInc && nd.bound >= s.incObj-absGap {
			continue // pruned by bound
		}
		s.plunge(nd, open)
	}
	if s.hasInc {
		if s.exact {
			return s.result(StatusOptimal, StopDrained, s.incObj), nil
		}
		// Heap drained but a subtree was skipped after a node-LP failure:
		// the incumbent is feasible, the bound best-effort (the skipped
		// subtree's inherited parent bound), not proven optimal.
		return s.result(StatusFeasible, StopDrained, math.Min(s.skippedBound, s.incObj)), nil
	}
	if s.exact {
		return s.result(StatusInfeasible, StopDrained, math.Inf(1)), nil
	}
	// No incumbent and a skipped subtree: the skipped part may well contain
	// feasible points, so infeasibility is not proven either.
	return s.result(StatusNoSolution, StopDrained, s.skippedBound), nil
}

// solveRoot solves the root relaxation, from rootBasis when there is one
// (SolveFrom of nil is Solve); SolveFrom solves a start it refuses again
// cold.
func (s *search) solveRoot() *simplex.Result {
	res := s.lp.SolveFrom(s.rootBasis)
	s.lpIters += res.Iters
	if s.rootBasis != nil {
		if why := CountStart(res, &s.starts.Roots, &s.starts.RootsCold); why != "" {
			s.logf("mip: root relaxation from basis %s; solving cold", why)
		}
	}
	return res
}

// plunge solves nd and then repeatedly descends into the child whose bound
// looks most promising, pushing the sibling onto the heap, until the dive
// is pruned, integral, or infeasible.
func (s *search) plunge(nd *node, open *nodeHeap) {
	s.applyPath(nd.path)
	for {
		res := s.solveNode(nd)
		s.nodes++
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
			if dist > intTol {
				s.creditPseudocost(nd.bvar, nd.up, math.Max(0, bound-nd.parentObj)/dist)
			}
			nd.bvar = -1 // credit once, not on every dive iteration
		}
		if s.hasInc && bound >= s.incObj-absGap {
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
		if s.stop() || s.nodes >= s.opt.MaxNodes {
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
		sibling.basis = s.lp.Basis()
		heap.Push(open, sibling)
		nd = dive
		// Apply only the new fixing; the rest of the path is already set.
		f := nd.path[len(nd.path)-1]
		s.lp.SetBound(f.j, f.lb, f.ub)
	}
}

// solveNode solves nd's LP with its path's bounds applied: a node popped off
// the heap from its parent's basis (SolveFrom, which solves a start it
// refuses again cold), a plunge child by the dual simplex from where its
// parent's solve left the tree solver. Numerical trouble or an iteration
// limit there is retried from a fresh basis before the caller gives up on
// the subtree.
func (s *search) solveNode(nd *node) *simplex.Result {
	if nd.basis != nil {
		res := s.lp.SolveFrom(nd.basis)
		s.lpIters += res.Iters
		if why := CountStart(res, &s.starts.Nodes, &s.starts.NodesCold); why != "" {
			s.logf("mip: node %d from basis %s; solving cold", s.nodes+1, why)
		}
		return res
	}
	res := s.lp.ReSolveDual()
	s.lpIters += res.Iters
	switch res.Status {
	case simplex.StatusOptimal, simplex.StatusInfeasible, simplex.StatusCanceled:
		return res
	}
	res = s.lp.Solve()
	s.lpIters += res.Iters
	return res
}

func clonePath(p []fixing) []fixing {
	return append(make([]fixing, 0, len(p)+1), p...)
}
