// Package simplex implements a revised simplex solver for linear programs
// with bounded variables:
//
//	minimize    cᵀx
//	subject to  row_r · x  (≤ | = | ≥)  b_r     r = 1..m
//	            lb_j ≤ x_j ≤ ub_j               j = 1..n
//
// where each column has at least one finite bound (Problem.Validate refuses
// a free column; every model the repo builds bounds its columns below) and
// the bounds SetBound moves are finite. It is the numerical kernel behind
// the fragment-allocation LPs of the reproduced paper and the LP
// relaxations inside the branch-and-bound MIP solver (package mip). The implementation is a textbook bounded-variable
// revised simplex with
//
//   - a sparse LU factorization of the basis (Markowitz-style column
//     ordering, threshold partial pivoting) maintained across pivots by an
//     eta file and rebuilt by periodic refactorization (see lu.go),
//   - a two-phase primal method (phase 1 minimizes the sum of artificial
//     variables),
//   - Devex pricing by default (Options.Pricing, see devex.go) with the
//     classic Dantzig rule available as a baseline, and an automatic switch
//     to Bland's rule after prolonged degenerate stalling, and
//   - a bounded-variable dual simplex used to warm-start re-solves after
//     bound changes (branching in the MIP solver).
//
// Only the Go standard library is used.
package simplex

import (
	"fmt"
	"math"
)

// Relation is the sense of a linear constraint.
type Relation int

const (
	// LE is row·x ≤ b.
	LE Relation = iota
	// GE is row·x ≥ b.
	GE
	// EQ is row·x = b.
	EQ
)

// Row is a sparse constraint row: sum over t of Coef[t] * x[Idx[t]].
type Row struct {
	Idx  []int
	Coef []float64
}

// Problem is a linear program in the bounded-variable form documented in the
// package comment. All slices indexed by variable have length NumVars; Rows,
// Rel and RHS have one entry per constraint.
type Problem struct {
	NumVars int
	Obj     []float64 // objective coefficients (minimization)
	LB, UB  []float64 // variable bounds; at most one of each pair may be infinite
	Rows    []Row
	Rel     []Relation
	RHS     []float64
}

// AddVar appends a variable with the given bounds and objective coefficient
// and returns its index.
func (p *Problem) AddVar(lb, ub, obj float64) int {
	j := p.NumVars
	p.NumVars++
	p.Obj = append(p.Obj, obj)
	p.LB = append(p.LB, lb)
	p.UB = append(p.UB, ub)
	return j
}

// AddRow appends a constraint and returns its index. The row data is
// copied, so callers may reuse idx/coef as scratch buffers.
func (p *Problem) AddRow(idx []int, coef []float64, rel Relation, rhs float64) int {
	r := len(p.Rows)
	p.Rows = append(p.Rows, Row{
		Idx:  append([]int(nil), idx...),
		Coef: append([]float64(nil), coef...),
	})
	p.Rel = append(p.Rel, rel)
	p.RHS = append(p.RHS, rhs)
	return r
}

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	if len(p.Obj) != p.NumVars || len(p.LB) != p.NumVars || len(p.UB) != p.NumVars {
		return fmt.Errorf("simplex: obj/lb/ub length mismatch with NumVars=%d", p.NumVars)
	}
	if len(p.Rel) != len(p.Rows) || len(p.RHS) != len(p.Rows) {
		return fmt.Errorf("simplex: rel/rhs length mismatch with %d rows", len(p.Rows))
	}
	for j := 0; j < p.NumVars; j++ {
		if p.LB[j] > p.UB[j] {
			return fmt.Errorf("simplex: variable %d has lb %g > ub %g", j, p.LB[j], p.UB[j])
		}
		if math.IsNaN(p.LB[j]) || math.IsNaN(p.UB[j]) || math.IsNaN(p.Obj[j]) {
			return fmt.Errorf("simplex: variable %d has NaN data", j)
		}
		if math.IsInf(p.LB[j], -1) && math.IsInf(p.UB[j], 1) {
			return fmt.Errorf("simplex: variable %d is free: neither bound is finite", j)
		}
	}
	for r, row := range p.Rows {
		if len(row.Idx) != len(row.Coef) {
			return fmt.Errorf("simplex: row %d has %d indices but %d coefficients", r, len(row.Idx), len(row.Coef))
		}
		for t, j := range row.Idx {
			if j < 0 || j >= p.NumVars {
				return fmt.Errorf("simplex: row %d references variable %d outside [0,%d)", r, j, p.NumVars)
			}
			if math.IsNaN(row.Coef[t]) || math.IsInf(row.Coef[t], 0) {
				return fmt.Errorf("simplex: row %d has non-finite coefficient for variable %d", r, j)
			}
		}
		if math.IsNaN(p.RHS[r]) || math.IsInf(p.RHS[r], 0) {
			return fmt.Errorf("simplex: row %d has non-finite rhs", r)
		}
	}
	return nil
}

// Satisfies reports whether x is a point of p: every variable within its
// bounds and every row within its relation, each to FeasTol scaled by
// max(1, |b|) for the bound or right-hand side b it is held against. A NaN
// entry fails.
func (p *Problem) Satisfies(x []float64) bool {
	if len(x) != p.NumVars {
		return false
	}
	for j, v := range x {
		if !(v >= p.LB[j]-feasSlack(p.LB[j]) && v <= p.UB[j]+feasSlack(p.UB[j])) {
			return false
		}
	}
	for r, row := range p.Rows {
		var act float64
		for t, j := range row.Idx {
			act += row.Coef[t] * x[j]
		}
		b, slack := p.RHS[r], feasSlack(p.RHS[r])
		var ok bool
		switch p.Rel[r] {
		case LE:
			ok = act <= b+slack
		case GE:
			ok = act >= b-slack
		default:
			ok = math.Abs(act-b) <= slack
		}
		if !ok {
			return false
		}
	}
	return true
}

// feasSlack is the slack Satisfies grants against the bound or right-hand
// side b; an infinite bound grants an infinite one.
func feasSlack(b float64) float64 { return FeasTol * math.Max(1, math.Abs(b)) }

// Status is the outcome of a solve.
type Status int

const (
	// StatusUnknown means the solver has not run or was interrupted before
	// reaching a conclusion.
	StatusUnknown Status = iota
	// StatusOptimal means an optimal basic solution was found.
	StatusOptimal
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective decreases without bound.
	StatusUnbounded
	// StatusIterLimit means the iteration limit was hit first.
	StatusIterLimit
	// StatusCanceled means Options.Canceled reported cancellation before the
	// solve reached a conclusion.
	StatusCanceled
)

func (s Status) String() string {
	switch s {
	case StatusUnknown:
		return "unknown"
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	case StatusCanceled:
		return "canceled"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Result holds the outcome of a solve.
type Result struct {
	Status Status
	// X holds the values of the structural variables (length NumVars) when
	// Status is StatusOptimal; otherwise it is nil.
	X []float64
	// Obj is cᵀx at the returned point.
	Obj float64
	// Iters is the total number of simplex pivots performed (both phases).
	Iters int
	// Recovery, when non-nil, records the numerical recovery ladder the
	// solve had to climb (see Recovery); nil means it finished without
	// climbing a rung.
	Recovery *Recovery
}

// Recovery is the telemetry of the numerical recovery ladders. A warm
// ReSolveDual whose dual pass breaks down numerically first repairs it in
// place (rungs refactor and rollback) and only then restarts cold (rung
// cold); a cold-start solve that fails numerically (a singular
// refactorization or a stalled pass ending in StatusUnknown) restarts
// from scratch with progressively more conservative settings (rungs
// bland and perturb) instead of reporting StatusUnknown outright; a
// SolveFrom whose start does not stand solves again cold (rung refused).
// Each rung climbed appends its name to Rungs.
type Recovery struct {
	// Restarts is the number of from-scratch restarts performed: the
	// cold, bland, perturb and refused rungs.
	Restarts int
	// Rungs names the ladder rungs tried, in order.
	Rungs []string
	// Refused says why SolveFrom refused its start ("ended unknown",
	// "violates a row of the problem and is refused"); empty when the
	// refused rung was not climbed.
	Refused string
}

// Ladder rung names recorded in Recovery.Rungs.
const (
	// RungRefactor refactorizes in the middle of a dual pass whose pivot
	// element, computed through the eta file, disagreed with the pivot row
	// about its size, and prices the iteration again on the fresh factors.
	RungRefactor = "refactor"
	// RungRollback undoes a dual pass's pivots back to the last basis that
	// factored, after the basis they led to failed to, and finishes the
	// pass from there with the Harris ratio test.
	RungRollback = "rollback"
	// RungCold abandons a warm ReSolveDual and solves cold with Solve.
	RungCold = "cold"
	// RungBland restarts the solve with Bland's anti-cycling rule forced
	// from the first pivot.
	RungBland = "bland"
	// RungPerturb restarts with Bland's rule still forced and perturbed
	// tolerances: a smaller pivot-admission threshold and looser
	// feasibility/optimality tolerances.
	RungPerturb = "perturb"
	// RungRefused refuses a SolveFrom start that ended other than optimal,
	// infeasible or canceled, or optimal at a point off a row of the
	// problem, and solves the problem again cold with Solve.
	RungRefused = "refused"
)

// FaultInjector forces numerical failures at chosen points of a solve so
// tests can exercise the recovery ladder and the callers' degradation
// paths deterministically (see package faultinject). Production solves
// leave Options.Fault nil. Implementations must be safe for concurrent
// use: the MIP solver copies its LP options — injector included — into
// helper solvers, and the decomposition driver shares one Options value
// across parallel subproblem solves.
type FaultInjector interface {
	// FailRefactor is consulted by every basis refactorization; returning
	// true makes the refactorization fail as if the basis were singular.
	FailRefactor() bool
	// ForceStall is consulted once per simplex iteration; returning true
	// aborts the pass as a numerical failure (StatusUnknown), which sends
	// Solve to its recovery ladder.
	ForceStall() bool
	// RefactorEvery is consulted when a solver is built: a positive value
	// caps the eta updates between two refactorizations of the basis, so
	// that the refactorizations a test fails are reached (1 refactorizes
	// after every pivot); 0 keeps the default.
	RefactorEvery() int
}

// The solver's tolerances. Only the last rung of Solve's recovery ladder
// departs from them, and only for its own restart.
const (
	// FeasTol is the primal feasibility tolerance: how far a basic variable
	// may sit outside its bounds and still count as feasible. It is exported
	// so that a point checked outside the solver (Problem.Satisfies) is held
	// to the standard the solver holds its own points to.
	FeasTol  = 1e-7
	optTol   = 1e-7 // reduced-cost optimality
	pivotTol = 1e-8 // minimum magnitude of an acceptable pivot element
)

// Options tune the solver. The zero value selects the defaults below.
type Options struct {
	// MaxIters bounds the total pivot count; 0 means 50000 + 50*(m+n).
	MaxIters int
	// Pricing selects the pivot-pricing rule for both simplex loops. The
	// zero value is PricingDevex (the default); PricingDantzig is the
	// pre-Devex rule, bit for bit, which the decomposition's dive solves
	// with (so that its proposals do not depend on the pricing rule).
	Pricing Pricing
	// Canceled, when non-nil, is polled once per simplex iteration; as soon
	// as it returns true the solve stops and reports StatusCanceled. The
	// hook must be cheap — it sits on the pivot loop — and is only ever
	// called from the goroutine driving the solve.
	Canceled func() bool
	// Fault, when non-nil, injects numerical failures at deterministic
	// points (see FaultInjector). Nil in production.
	Fault FaultInjector

	// maxFactorNonzeros bounds the size of the basis factorization: NewSolver
	// rejects problems whose constraint matrix already has more nonzeros,
	// and a refactorization whose L+U fill exceeds it fails like a singular
	// basis (entering the recovery ladder). Zero means factorNonzeroBudget,
	// 50e6 entries (≈ 600 MB): the budget is on what costs memory, so a
	// huge-but-sparse model is not turned away by its row count. Only tests
	// set it.
	maxFactorNonzeros int
	// refactorEvery caps the eta updates between two refactorizations of
	// the basis (a dual re-solve enters at half of it): the bound on
	// numerical drift through the product-form file. Zero means
	// Fault.RefactorEvery() when a fault injector is set and asks for a
	// cadence, defaultRefactorEvery otherwise. Only tests set it.
	refactorEvery int
}

const factorNonzeroBudget = 50_000_000

// defaultRefactorEvery is the eta-update cap production solves run with. It
// is rarely what triggers a refactorization: the kernel asks for a refresh
// as soon as the solves have spent more on walking the eta file than a
// fresh factorization costs (refreshDue in lu.go), which on the repo's
// workloads is every 30–40 updates.
const defaultRefactorEvery = 120

// IterLimit is the pivot limit a solve of a problem with m rows and n
// columns runs with under o: MaxIters, or the default when it is 0.
func (o Options) IterLimit(m, n int) int {
	if o.MaxIters != 0 {
		return o.MaxIters
	}
	return 50000 + 50*(m+n)
}

func (o Options) withDefaults(m, n int) Options {
	o.MaxIters = o.IterLimit(m, n)
	if o.refactorEvery == 0 && o.Fault != nil {
		o.refactorEvery = o.Fault.RefactorEvery()
	}
	if o.refactorEvery == 0 {
		o.refactorEvery = defaultRefactorEvery
	}
	if o.maxFactorNonzeros == 0 {
		o.maxFactorNonzeros = factorNonzeroBudget
	}
	return o
}

// Solve is the one-shot convenience entry point: build a Solver, run the
// two-phase primal simplex, and return the result.
func Solve(p *Problem, opt Options) (*Result, error) {
	s, err := NewSolver(p, opt)
	if err != nil {
		return nil, err
	}
	return s.Solve(), nil
}
