package core

import (
	"errors"
	"fmt"

	"fragalloc/internal/mip"
	"fragalloc/internal/simplex"
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

// The outcomes of one subproblem solve, as the journal's
// checkpoint.SubRecord.Outcome spells them.
const (
	// OutcomeOptimal means the subproblem MIP was solved to proven
	// optimality within the gap tolerances.
	OutcomeOptimal = "optimal"
	// OutcomeFeasible means the search stopped at a budget (time, nodes,
	// stall, or cancellation) with a feasible incumbent and a reported gap.
	OutcomeFeasible = "feasible"
	// OutcomeDegraded means the MIP failed even after the retry rung and
	// the subproblem fell back to the greedy allocator — feasible, but with
	// no optimality guarantee beyond the reported replication-factor delta.
	OutcomeDegraded = "degraded"
)

// OutcomeCounts tallies per-subproblem outcomes across a decomposition.
type OutcomeCounts struct {
	Optimal, Feasible, Degraded int
}

func (c *OutcomeCounts) add(o string) {
	switch o {
	case OutcomeOptimal:
		c.Optimal++
	case OutcomeFeasible:
		c.Feasible++
	case OutcomeDegraded:
		c.Degraded++
	}
}

func (c OutcomeCounts) String() string {
	return fmt.Sprintf("%d optimal, %d feasible, %d degraded", c.Optimal, c.Feasible, c.Degraded)
}

// canceled reports whether the caller's cancellation hook has fired.
func (d *driver) canceled() bool {
	return d.opt.Canceled != nil && d.opt.Canceled()
}

// mipOptions derives the per-subproblem MIP options: the caller's budgets
// with the run's one hook as both MIP.Canceled, which the search polls (mip
// installs its own stop hook as its LPs' Canceled), and MIP.LP.Canceled,
// which the dive and trim LPs poll, as they run outside any mip.Solve; and
// the run's serialized logger as MIP.Logf, so the search's own lines (a
// skipped subtree, a refused start) reach the run's log too.
func (d *driver) mipOptions() mip.Options {
	opt := d.opt.MIP
	opt.Canceled = d.opt.Canceled
	opt.LP.Canceled = d.opt.Canceled
	opt.Logf = d.logf
	return opt
}

// escalateIters is the retry rung of the failure policy: four times the
// pivot limit the failed attempt ran with on p, the subproblem's model (its
// largest LP; the MIP's presolved LPs are smaller and had lower defaults).
func escalateIters(lp simplex.Options, p *simplex.Problem) int {
	return 4 * lp.IterLimit(len(p.Rows), p.NumVars)
}

// solveWithPolicy is the per-subproblem failure policy (DESIGN.md §3.7).
// Ladder: (1) solve with the configured budgets; (2) on a solver failure,
// retry once with escalated simplex iteration limits; (3) if the retry
// fails too — or the run was canceled, making a retry pointless — degrade
// the subproblem to the greedy allocator, which always produces a feasible
// (suboptimal) allocation under the soft load-limit model. Infeasible or
// malformed inputs still abort the run: degradation can't fix those, and
// hiding them would report a broken allocation as a success. The solution
// it settles on counts the work of the attempts that failed before it.
func (d *driver) solveWithPolicy(sp *subproblem, spec *ChunkSpec, ck *subCheckpoint, hints ...hint) (*solution, error) {
	p, ix, intVars := sp.build()
	sol, err := sp.solve(p, ix, intVars, d.mipOptions(), ck, d.logf, hints...)
	if errors.Is(err, errSolverFailure) && !d.canceled() {
		d.logf("core: split %v solve failed (%v); retrying with escalated iteration limits", spec, err)
		retry := d.mipOptions()
		retry.LP.MaxIters = escalateIters(retry.LP, p)
		failed := sol
		sol, err = sp.solve(p, ix, intVars, retry, ck, d.logf, hints...)
		sol.lpiters += failed.lpiters
		sol.starts.add(failed.starts)
	}
	if !errors.Is(err, errSolverFailure) {
		return sol, err
	}
	d.logf("core: split %v degraded to the greedy allocator (%v)", spec, err)
	degraded := sp.degrade()
	degraded.lpiters, degraded.starts, degraded.first = sol.lpiters, sol.starts, "none"
	return degraded, nil
}
