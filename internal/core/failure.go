package core

import (
	"errors"
	"fmt"

	"fragalloc/internal/mip"
)

// ErrInfeasible marks inputs that admit no feasible allocation (for
// example, partial-clustering queries whose combined share exceeds the node
// capacity 1/K in some scenario). Callers can distinguish it from internal
// solver breakdowns with errors.Is; cmd/allocate maps it to its own exit
// code.
var ErrInfeasible = errors.New("no feasible allocation")

// errSolverFailure classifies subproblem solver breakdowns — a failed root
// relaxation, or a budget-exhausted search without an incumbent — that the
// driver's failure policy retries and, if need be, degrades to the greedy
// allocator instead of aborting the whole decomposition.
var errSolverFailure = errors.New("solver failure")

// Outcome classifies how one subproblem of the decomposition was solved.
type Outcome int

const (
	// OutcomeOptimal means the subproblem MIP was solved to proven
	// optimality within the gap tolerances.
	OutcomeOptimal Outcome = iota
	// OutcomeFeasible means the search stopped at a budget (time, nodes,
	// stall, or cancellation) with a feasible incumbent and a reported gap.
	OutcomeFeasible
	// OutcomeDegraded means the MIP failed even after the retry rung and
	// the subproblem fell back to the greedy allocator — feasible, but with
	// no optimality guarantee beyond the reported replication-factor delta.
	OutcomeDegraded
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOptimal:
		return "optimal"
	case OutcomeFeasible:
		return "feasible"
	case OutcomeDegraded:
		return "degraded"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// OutcomeCounts tallies per-subproblem outcomes across a decomposition.
type OutcomeCounts struct {
	Optimal, Feasible, Degraded int
}

func (c *OutcomeCounts) add(o Outcome) {
	switch o {
	case OutcomeOptimal:
		c.Optimal++
	case OutcomeFeasible:
		c.Feasible++
	case OutcomeDegraded:
		c.Degraded++
	}
}

// Total is the number of solved subproblems counted.
func (c OutcomeCounts) Total() int { return c.Optimal + c.Feasible + c.Degraded }

func (c OutcomeCounts) String() string {
	return fmt.Sprintf("%d optimal, %d feasible, %d degraded", c.Optimal, c.Feasible, c.Degraded)
}

// canceled reports whether the caller's cancellation hook has fired.
func (d *driver) canceled() bool {
	return d.opt.Canceled != nil && d.opt.Canceled()
}

// chainHooks combines two optional cancellation hooks into one.
func chainHooks(a, b func() bool) func() bool {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func() bool { return a() || b() }
}

// mipOptions derives the per-subproblem MIP options: the caller's budgets
// with the driver's cancellation hook chained in at both the search level
// and the inner-LP level (the latter covers the dive and trim helper LPs,
// which run outside any mip.Solve).
func (d *driver) mipOptions() mip.Options {
	opt := d.opt.MIP
	opt.Canceled = chainHooks(d.opt.Canceled, opt.Canceled)
	opt.LP.Canceled = chainHooks(d.opt.Canceled, opt.LP.Canceled)
	return opt
}

// escalateIters is the retry rung of the failure policy: a generous
// absolute floor, or four times the caller's explicit limit.
func (d *driver) escalateIters(n int) int {
	if n == 0 {
		return 400000
	}
	return 4 * n
}

// solveWithPolicy is the per-subproblem failure policy (DESIGN.md §3.7).
// Ladder: (1) solve with the configured budgets; (2) on a solver failure,
// retry once with escalated simplex iteration limits; (3) if the retry
// fails too — or the run was canceled, making a retry pointless — degrade
// the subproblem to the greedy allocator, which always produces a feasible
// (suboptimal) allocation under the soft load-limit model. Infeasible or
// malformed inputs still abort the run: degradation can't fix those, and
// hiding them would report a broken allocation as a success.
func (d *driver) solveWithPolicy(sp *subproblem, spec *ChunkSpec, ck *subCheckpoint, hints ...[][]bool) (*solution, error) {
	sol, err := sp.solve(d.mipOptions(), ck, hints...)
	if err == nil {
		return sol, nil
	}
	if !errors.Is(err, errSolverFailure) {
		return nil, err
	}
	if !d.canceled() {
		d.logf("core: split %v solve failed (%v); retrying with escalated iteration limits", spec, err)
		retry := d.mipOptions()
		retry.LP.MaxIters = d.escalateIters(retry.LP.MaxIters)
		sol, err = sp.solve(retry, ck, hints...)
		if err == nil {
			return sol, nil
		}
		if !errors.Is(err, errSolverFailure) {
			return nil, err
		}
	}
	d.logf("core: split %v degraded to the greedy allocator (%v)", spec, err)
	return sp.degrade(), nil
}
