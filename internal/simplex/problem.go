// Package simplex implements a revised simplex solver for linear programs
// with bounded variables:
//
//	minimize    cᵀx
//	subject to  row_r · x  (≤ | = | ≥)  b_r     r = 1..m
//	            lb_j ≤ x_j ≤ ub_j               j = 1..n
//
// It is the numerical kernel behind the fragment-allocation LPs of the
// reproduced paper and the LP relaxations inside the branch-and-bound MIP
// solver (package mip). The implementation is a textbook bounded-variable
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

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

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
	LB, UB  []float64 // variable bounds; use math.Inf(±1) for free directions
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
	// solve had to climb (see Recovery); nil means the first attempt
	// finished without a restart.
	Recovery *Recovery
}

// Recovery is the telemetry of the numerical recovery ladder: when a
// cold-start solve fails numerically (a singular refactorization or a
// stalled pass ending in StatusUnknown), Solve restarts from scratch with
// progressively more conservative settings instead of reporting
// StatusUnknown outright. Each restart appends one rung name to Rungs.
type Recovery struct {
	// Restarts is the number of from-scratch restarts performed.
	Restarts int
	// Rungs names the ladder rungs tried, in order.
	Rungs []string
}

// Ladder rung names recorded in Recovery.Rungs.
const (
	// RungBland restarts the solve with Bland's anti-cycling rule forced
	// from the first pivot.
	RungBland = "bland"
	// RungPerturb restarts with Bland's rule still forced and perturbed
	// tolerances: a smaller pivot-admission threshold and looser
	// feasibility/optimality tolerances.
	RungPerturb = "perturb"
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
}

// The solver's tolerances. Only the last rung of Solve's recovery ladder
// departs from them, and only for its own restart.
const (
	feasTol  = 1e-7 // primal feasibility
	optTol   = 1e-7 // reduced-cost optimality
	pivotTol = 1e-8 // minimum magnitude of an acceptable pivot element
)

// Options tune the solver. The zero value selects the defaults below.
type Options struct {
	// MaxIters bounds the total pivot count; 0 means 50000 + 50*(m+n).
	MaxIters int
	// RefactorEvery caps the eta updates between two refactorizations of
	// the basis (default 120; a dual re-solve enters at half of it): the
	// bound on numerical drift through the product-form file. It is rarely
	// what triggers one. The kernel asks for a refresh as soon as the solves
	// have spent more on walking the eta file than a fresh factorization
	// costs (refreshDue in lu.go), which on the repo's workloads is every
	// 30–40 updates. Only tests set it, to 1, so that every pivot
	// refactorizes.
	RefactorEvery int
	// MaxFactorNonzeros bounds the size of the basis factorization: NewSolver
	// rejects problems whose constraint matrix already has more nonzeros,
	// and a refactorization whose L+U fill exceeds it fails like a singular
	// basis (entering the recovery ladder). The default is 50e6 entries
	// (≈ 600 MB): the budget is on what costs memory, so a huge-but-sparse
	// model that the LU kernel handles easily is not turned away by its
	// row count.
	MaxFactorNonzeros int
	// Pricing selects the pivot-pricing rule for both simplex loops. The
	// zero value is PricingDevex (the default); PricingDantzig restores the
	// pre-Devex rule bit-identically for regression baselines.
	Pricing Pricing
	// Canceled, when non-nil, is polled once per simplex iteration; as soon
	// as it returns true the solve stops and reports StatusCanceled. The
	// hook must be cheap — it sits on the pivot loop — and is only ever
	// called from the goroutine driving the solve.
	Canceled func() bool
	// Fault, when non-nil, injects numerical failures at deterministic
	// points (see FaultInjector). Nil in production.
	Fault FaultInjector
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIters == 0 {
		o.MaxIters = 50000 + 50*(m+n)
	}
	if o.RefactorEvery == 0 {
		o.RefactorEvery = 120
	}
	if o.MaxFactorNonzeros == 0 {
		o.MaxFactorNonzeros = 50_000_000
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
