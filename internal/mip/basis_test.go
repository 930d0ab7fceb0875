package mip

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fragalloc/internal/faultinject"
	"fragalloc/internal/simplex"
)

// TestPresolveRowMap checks rebuild's row map on a presolve that removes a
// singleton row and a redundant one and keeps the other two, renumbered.
func TestPresolveRowMap(t *testing.T) {
	p := &simplex.Problem{}
	x := p.AddVar(0, 5, -1)
	w := p.AddVar(0, 1, -1)
	v := p.AddVar(0, 1, 1)
	p.AddRow([]int{x}, []float64{3}, simplex.LE, 7)         // singleton: a bound
	p.AddRow([]int{x, w}, []float64{1, 1}, simplex.LE, 2)   // kept
	p.AddRow([]int{w, v}, []float64{1, 1}, simplex.LE, 5)   // redundant: at most 2
	p.AddRow([]int{x, v}, []float64{1, 1}, simplex.GE, 0.5) // kept
	ps := runPresolve(p, []int{x}, nil)
	if ps.infeasible {
		t.Fatal("feasible instance reported infeasible")
	}
	want := []int{-1, 0, -1, 1}
	if len(ps.rowMap) != len(want) {
		t.Fatalf("rowMap %v, want %v", ps.rowMap, want)
	}
	for i := range want {
		if ps.rowMap[i] != want[i] {
			t.Fatalf("rowMap %v, want %v", ps.rowMap, want)
		}
	}
	for i, r := range ps.rowMap {
		if r >= 0 && ps.reduced.Rel[r] != p.Rel[i] {
			t.Errorf("row %d → %d changed relation %v → %v", i, r, p.Rel[i], ps.reduced.Rel[r])
		}
	}
}

// TestReduceBasisDemotesTightRow maps a basis through a presolve that turns
// a tight singleton row into a bound: the row's slack was nonbasic, so its
// column, basic in the caller's basis, is demoted to the bound that keeps
// the row tight — upper for a positive coefficient in an LE row or a
// negative one in a GE row, lower for the other two.
func TestReduceBasisDemotesTightRow(t *testing.T) {
	for _, c := range []struct {
		name string
		coef float64
		rel  simplex.Relation
		rhs  float64
		want simplex.BasisStatus
	}{
		{"x ≤ 1.5", 1, simplex.LE, 1.5, simplex.AtUpper},
		{"−x ≥ −1.5", -1, simplex.GE, -1.5, simplex.AtUpper},
		{"x ≥ 0.5", 1, simplex.GE, 0.5, simplex.AtLower},
		{"−x ≤ −0.5", -1, simplex.LE, -0.5, simplex.AtLower},
	} {
		p := &simplex.Problem{}
		x := p.AddVar(0, 2, -1)
		y := p.AddVar(0, 3, -1)
		p.AddRow([]int{x}, []float64{c.coef}, c.rel, c.rhs)      // singleton, tight
		p.AddRow([]int{x, y}, []float64{1, 1}, simplex.LE, 4)    // kept
		p.AddRow([]int{x, y}, []float64{1, -1}, simplex.GE, -10) // redundant, slack basic
		ps := runPresolve(p, nil, nil)
		if ps.infeasible || len(ps.reduced.Rows) != 1 || ps.rowMap[1] != 0 {
			t.Fatalf("%s: presolve kept rows %v, want the second alone", c.name, ps.rowMap)
		}
		b := &simplex.Basis{
			Cols: []simplex.BasisStatus{simplex.Basic, simplex.Basic},
			Rows: []simplex.BasisStatus{simplex.AtLower, simplex.AtLower, simplex.Basic},
		}
		if c.rel == simplex.GE {
			b.Rows[0] = simplex.AtUpper
		}
		got := ps.reduceBasis(p, b)
		if got.Cols[ps.colMap[x]] != c.want || got.Cols[ps.colMap[y]] != simplex.Basic || got.Rows[0] != simplex.AtLower {
			t.Errorf("%s: reduced basis %+v, want x %v, y basic, row slack at lower", c.name, got, c.want)
		}
	}
}

// TestReduceBasisWrongSize refuses a basis not sized for the problem.
func TestReduceBasisWrongSize(t *testing.T) {
	p, ints := goldenInstance(1)
	ps := runPresolve(p, ints, nil)
	if got := ps.reduceBasis(p, &simplex.Basis{Cols: make([]simplex.BasisStatus, p.NumVars)}); got != nil {
		t.Errorf("reduceBasis of a basis without rows = %+v, want nil", got)
	}
}

// TestRootFromBasis starts the root of each golden instance from the
// optimal basis of its own LP relaxation, mapped through presolve: the same
// root objective, in fewer pivots than the cold root.
func TestRootFromBasis(t *testing.T) {
	var coldIters, warmIters int
	for seed := int64(1); seed <= 40; seed++ {
		p, ints := goldenInstance(seed)
		lp, err := simplex.NewSolver(p, simplex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res := lp.Solve(); res.Status != simplex.StatusOptimal {
			continue
		}
		cold, err := Solve(p, ints, Options{MaxNodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Solve(p, ints, Options{MaxNodes: 1, RootBasis: lp.Basis()})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(warm.Bound-cold.Bound) > 1e-9*math.Max(1, math.Abs(cold.Bound)) {
			t.Errorf("seed %d: root from basis %.12g, cold %.12g", seed, warm.Bound, cold.Bound)
		}
		if warm.Starts != (Starts{Roots: 1}) || cold.Starts != (Starts{}) {
			t.Errorf("seed %d: starts %+v with a basis, %+v without", seed, warm.Starts, cold.Starts)
		}
		if warm.LPIters > cold.LPIters {
			t.Errorf("seed %d: root from basis took %d pivots, cold %d", seed, warm.LPIters, cold.LPIters)
		}
		coldIters += cold.LPIters
		warmIters += warm.LPIters
	}
	if warmIters >= coldIters {
		t.Errorf("roots from basis took %d pivots in all, cold roots %d; want fewer", warmIters, coldIters)
	}
}

// TestRootFromBasisRefusedGoesCold stalls every rung of the start from the
// basis — its dual pass, then the cold, bland and perturb restarts of its
// ladder — so it ends unknown: SolveFrom refuses it and solves cold to the
// same bound, and the root says so.
func TestRootFromBasisRefusedGoesCold(t *testing.T) {
	p, ints := goldenInstance(7)
	lp, err := simplex.NewSolver(p, simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := lp.Solve(); res.Status != simplex.StatusOptimal {
		t.Fatalf("relaxation: %v", res.Status)
	}
	cold, err := Solve(p, ints, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	res, err := Solve(p, ints, Options{
		MaxNodes:  1,
		RootBasis: lp.Basis(),
		LP:        simplex.Options{Fault: faultinject.New(faultinject.Plan{Stalls: []int{0, 1, 2, 3}})},
		Logf:      func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	all := strings.Join(log, "\n")
	if !strings.Contains(all, "root relaxation from basis ended unknown; solving cold") || !strings.Contains(all, "iters, cold") {
		t.Errorf("log does not show the refusal and the cold root:\n%s", all)
	}
	if res.Starts != (Starts{RootsCold: 1}) || math.Abs(res.Bound-cold.Bound) > 1e-9*math.Max(1, math.Abs(cold.Bound)) {
		t.Errorf("starts %+v, bound %.12g; want one refused root and the cold root's %.12g", res.Starts, res.Bound, cold.Bound)
	}
}

// TestRootFromBasisViolatingRowRefused makes the start from the basis end
// optimal at a point off a row: the dual pass and the cold and bland
// restarts of its ladder stall, and the perturb rung, whose feasibility
// tolerance is a hundred times looser, takes the slack basis as feasible
// with the row x + w ≥ 5e-6 still uncovered at x = w = 0. Problem.Satisfies
// holds rows to the solver's own tolerance, so SolveFrom refuses the point
// and solves cold to the true bound, and the root says so.
func TestRootFromBasisViolatingRowRefused(t *testing.T) {
	p := &simplex.Problem{}
	x := p.AddVar(0, 1, 1)
	w := p.AddVar(0, 1, 1)
	y := p.AddVar(0, 1, -1)
	p.AddRow([]int{x, w}, []float64{1, 1}, simplex.GE, 5e-6)
	p.AddRow([]int{y, x, w}, []float64{1, 1, -1}, simplex.LE, 1.5)
	lp, err := simplex.NewSolver(p, simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := lp.Solve(); res.Status != simplex.StatusOptimal {
		t.Fatalf("relaxation: %v", res.Status)
	}
	ints := []int{y}
	cold, err := Solve(p, ints, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	res, err := Solve(p, ints, Options{
		MaxNodes:  1,
		RootBasis: lp.Basis(),
		LP:        simplex.Options{Fault: faultinject.New(faultinject.Plan{Stalls: []int{0, 1, 2}})},
		Logf:      func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	all := strings.Join(log, "\n")
	if !strings.Contains(all, "root relaxation from basis violates a row of the problem and is refused; solving cold") {
		t.Errorf("log does not show the refusal:\n%s", all)
	}
	if res.Starts != (Starts{RootsCold: 1}) || math.Abs(res.Bound-cold.Bound) > 1e-12 {
		t.Errorf("starts %+v, bound %.12g; want one refused root and the cold root's %.12g", res.Starts, res.Bound, cold.Bound)
	}
}
