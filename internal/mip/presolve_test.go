package mip

import (
	"math"
	"testing"

	"fragalloc/internal/simplex"
)

// TestPresolveImplicationChain reproduces the paper's x/y/z implication
// structure in miniature: a coverage row Σx − |q|·y ≥ 0 whose placement
// variables are fixed to 0 must force y to 0 through bound tightening, and
// the linking row z ≤ y must then force z to 0 — all before any LP runs.
func TestPresolveImplicationChain(t *testing.T) {
	p := &simplex.Problem{}
	x1 := p.AddVar(0, 0, 1) // placement fixed off
	x2 := p.AddVar(0, 0, 1)
	y := p.AddVar(0, 1, 0)
	z := p.AddVar(0, 5, -1)                                        // would love to grow, but z ≤ y ≤ 0
	p.AddRow([]int{x1, x2, y}, []float64{1, 1, -2}, simplex.GE, 0) // coverage
	p.AddRow([]int{z, y}, []float64{1, -5}, simplex.LE, 0)         // linking (scaled)
	ps := runPresolve(p, []int{y}, nil)
	if ps.infeasible {
		t.Fatal("feasible instance reported infeasible")
	}
	names := []struct {
		v    int
		name string
	}{{x1, "x1"}, {x2, "x2"}, {y, "y"}, {z, "z"}}
	for _, nv := range names {
		v, name := nv.v, nv.name
		if !ps.isFixed[v] {
			t.Errorf("%s not fixed by the implication chain", name)
		} else if ps.fixVal[v] != 0 {
			t.Errorf("%s fixed at %v, want 0", name, ps.fixVal[v])
		}
	}
	if ps.reduced.NumVars != 0 {
		t.Errorf("reduced problem has %d vars, want 0", ps.reduced.NumVars)
	}
}

// TestPresolveUpwardFixing is the dual chain: a coverage row that cannot be
// satisfied without y=1 ... x=1.
func TestPresolveUpwardFixing(t *testing.T) {
	p := &simplex.Problem{}
	x := p.AddVar(0, 1, 1)
	y := p.AddVar(1, 1, 0)                                 // query must run
	p.AddRow([]int{x, y}, []float64{1, -1}, simplex.GE, 0) // coverage: x ≥ y
	ps := runPresolve(p, []int{x, y}, nil)
	if ps.infeasible {
		t.Fatal("feasible instance reported infeasible")
	}
	if !ps.isFixed[x] || ps.fixVal[x] != 1 {
		t.Errorf("x not fixed to 1 (fixed=%v val=%v)", ps.isFixed[x], ps.fixVal[x])
	}
	if ps.objOff != 1 {
		t.Errorf("objOff = %v, want 1", ps.objOff)
	}
}

// TestPresolveInfeasibleRow checks activity-based infeasibility: a row no
// point in the box can satisfy short-circuits the solve.
func TestPresolveInfeasibleRow(t *testing.T) {
	p := &simplex.Problem{}
	a := p.AddVar(0, 1, 0)
	b := p.AddVar(0, 1, 0)
	p.AddRow([]int{a, b}, []float64{1, 1}, simplex.GE, 3) // max activity 2
	res, err := Solve(p, []int{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
	if !math.IsInf(res.Gap, 1) {
		t.Errorf("Gap = %v for infeasible result, want +Inf", res.Gap)
	}
}

// TestPresolveRestoreMapping solves a MIP where presolve fixes part of the
// variables and checks Result.X comes back in original coordinates, with
// the objective including the eliminated variables' contribution.
func TestPresolveRestoreMapping(t *testing.T) {
	p := &simplex.Problem{}
	fixed := p.AddVar(2, 2, 3) // eliminated, contributes 6 to the objective
	a := p.AddVar(0, 1, -2)
	b := p.AddVar(0, 1, -1)
	p.AddRow([]int{a, b}, []float64{1, 1}, simplex.LE, 1)
	res, err := Solve(p, []int{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if len(res.X) != 3 {
		t.Fatalf("X length %d, want 3 (original coordinates)", len(res.X))
	}
	if res.X[fixed] != 2 || res.X[a] != 1 || res.X[b] != 0 {
		t.Errorf("X = %v, want [2 1 0]", res.X)
	}
	if math.Abs(res.Obj-4) > 1e-9 { // 6 − 2
		t.Errorf("Obj = %v, want 4", res.Obj)
	}
	if math.Abs(res.Bound-4) > 1e-9 {
		t.Errorf("Bound = %v, want 4", res.Bound)
	}
}

// TestPresolveFullyFixed covers the degenerate case where presolve solves
// the entire problem and no LP ever runs.
func TestPresolveFullyFixed(t *testing.T) {
	p := &simplex.Problem{}
	a := p.AddVar(1, 1, 2)
	b := p.AddVar(0, 1, 5)                          // empty column, obj > 0: fixed at lb
	p.AddRow([]int{a}, []float64{3}, simplex.LE, 4) // redundant singleton
	res, err := Solve(p, []int{a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if res.X[a] != 1 || res.X[b] != 0 {
		t.Errorf("X = %v, want [1 0]", res.X)
	}
	if res.Obj != 2 || res.Bound != 2 || res.Gap != 0 {
		t.Errorf("Obj=%v Bound=%v Gap=%v, want 2/2/0", res.Obj, res.Bound, res.Gap)
	}
}

// TestPresolveSingletonAndIntegerRounding: a singleton row becomes a bound,
// and integer bounds snap to the lattice — here 3x ≤ 7 means x ≤ 2 for
// integer x. A non-redundant coupling row keeps x alive in the reduced
// problem so the tightened bound is observable (without it, x would become
// an empty column and presolve would fix it outright).
func TestPresolveSingletonAndIntegerRounding(t *testing.T) {
	p := &simplex.Problem{}
	x := p.AddVar(0, 5, -1)
	w := p.AddVar(0, 1, -1)
	p.AddRow([]int{x}, []float64{3}, simplex.LE, 7)
	p.AddRow([]int{x, w}, []float64{1, 1}, simplex.LE, 2) // live: max activity 3 > 2
	ps := runPresolve(p, []int{x}, nil)
	if ps.infeasible {
		t.Fatal("feasible instance reported infeasible")
	}
	if len(ps.reduced.Rows) != 1 {
		t.Errorf("reduced problem has %d rows, want 1 (singleton removed, coupling kept)", len(ps.reduced.Rows))
	}
	if ps.isFixed[x] {
		t.Fatal("x unexpectedly fixed")
	}
	r := ps.colMap[x]
	if ps.reduced.UB[r] != 2 {
		t.Errorf("x upper bound = %v, want 2 (floor(7/3) on the integer lattice)", ps.reduced.UB[r])
	}
}

// TestPresolveProposalTranslation checks that caller proposals conflicting
// with a presolve fixing are rejected rather than silently misapplied. The
// a+b row is there to keep a and b alive after y's elimination makes the
// a+y row redundant.
func TestPresolveProposalTranslation(t *testing.T) {
	p := &simplex.Problem{}
	y := p.AddVar(0, 0, 0) // forced off
	a := p.AddVar(0, 1, -1)
	b := p.AddVar(0, 1, -1)
	p.AddRow([]int{a, y}, []float64{1, 1}, simplex.LE, 1)
	p.AddRow([]int{a, b}, []float64{1, 1}, simplex.LE, 1)
	ps := runPresolve(p, []int{y, a, b}, nil)
	if !ps.isFixed[y] {
		t.Fatal("y not eliminated")
	}
	if got := ps.reduceProposal([]float64{1, 1, 0}); got != nil {
		t.Errorf("conflicting proposal accepted: %v", got)
	}
	got := ps.reduceProposal([]float64{0, 1, 0})
	if got == nil {
		t.Fatal("consistent proposal rejected")
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("reduced proposal = %v, want [1 0]", got)
	}
}

// TestPresolveCrossedBounds: tightening that crosses integer bounds proves
// infeasibility (here 2x ≥ 3 and x ≤ 1 for binary x leaves no lattice
// point).
func TestPresolveCrossedBounds(t *testing.T) {
	p := &simplex.Problem{}
	x := p.AddVar(0, 1, 0)
	p.AddRow([]int{x}, []float64{2}, simplex.GE, 3)
	ps := runPresolve(p, []int{x}, nil)
	if !ps.infeasible {
		t.Error("crossed integer bounds not detected")
	}
}
