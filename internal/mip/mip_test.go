package mip

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fragalloc/internal/simplex"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestKnapsack(t *testing.T) {
	// max 10a+13b+7c+11d s.t. 3a+4b+2c+3d <= 7, binary.
	// Best: b+d (value 24, weight 7). As minimization: obj -24.
	p := &simplex.Problem{}
	vals := []float64{10, 13, 7, 11}
	wts := []float64{3, 4, 2, 3}
	var idx []int
	for j := range vals {
		idx = append(idx, p.AddVar(0, 1, -vals[j]))
	}
	p.AddRow(idx, wts, simplex.LE, 7)
	res, err := Solve(p, idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if !approx(res.Obj, -24, 1e-6) {
		t.Errorf("obj = %g, want -24", res.Obj)
	}
	if res.Gap != 0 {
		t.Errorf("gap = %g, want 0", res.Gap)
	}
	if res.LPIters <= 0 {
		t.Errorf("LPIters = %d, want > 0 (root relaxation alone pivots)", res.LPIters)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// x binary, 0.4 <= x <= 0.6 via rows: no integer point.
	p := &simplex.Problem{}
	x := p.AddVar(0, 1, 1)
	p.AddRow([]int{x}, []float64{1}, simplex.GE, 0.4)
	p.AddRow([]int{x}, []float64{1}, simplex.LE, 0.6)
	res, err := Solve(p, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestLPInfeasible(t *testing.T) {
	p := &simplex.Problem{}
	x := p.AddVar(0, 1, 1)
	p.AddRow([]int{x}, []float64{1}, simplex.GE, 2)
	res, err := Solve(p, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -x - 0.5y, x binary, y in [0, 10], x + y <= 1.8.
	// x=1 -> y<=0.8 -> obj -1.4; x=0 -> y<=1.8 -> obj -0.9. Optimal -1.4.
	p := &simplex.Problem{}
	x := p.AddVar(0, 1, -1)
	y := p.AddVar(0, 10, -0.5)
	p.AddRow([]int{x, y}, []float64{1, 1}, simplex.LE, 1.8)
	res, err := Solve(p, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if !approx(res.Obj, -1.4, 1e-6) {
		t.Errorf("obj = %g, want -1.4", res.Obj)
	}
	if !approx(res.X[x], 1, 1e-6) || !approx(res.X[y], 0.8, 1e-6) {
		t.Errorf("x = %v, want (1, 0.8)", res.X)
	}
}

func TestGeneralInteger(t *testing.T) {
	// min -x with x integer in [0, 7], 2x <= 9 -> x=4, obj -4.
	p := &simplex.Problem{}
	x := p.AddVar(0, 7, -1)
	p.AddRow([]int{x}, []float64{2}, simplex.LE, 9)
	res, err := Solve(p, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || !approx(res.Obj, -4, 1e-6) {
		t.Errorf("status %v obj %g, want optimal -4", res.Status, res.Obj)
	}
}

func TestInfiniteBoundRejected(t *testing.T) {
	p := &simplex.Problem{}
	x := p.AddVar(0, math.Inf(1), 1)
	if _, err := Solve(p, []int{x}, Options{}); err == nil {
		t.Error("want error for unbounded integer variable")
	}
}

func TestBadIndexRejected(t *testing.T) {
	p := &simplex.Problem{}
	p.AddVar(0, 1, 1)
	if _, err := Solve(p, []int{3}, Options{}); err == nil {
		t.Error("want error for out-of-range integer index")
	}
}

// TestRandomVsEnumeration cross-checks branch and bound against explicit
// enumeration of all binary assignments on random mixed problems.
func TestRandomVsEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		nb := 1 + rng.Intn(6) // binaries
		nc := rng.Intn(3)     // continuous
		n := nb + nc
		p := &simplex.Problem{}
		for j := 0; j < nb; j++ {
			p.AddVar(0, 1, math.Round((rng.Float64()*10-5)*4)/4)
		}
		for j := 0; j < nc; j++ {
			p.AddVar(0, 3, math.Round((rng.Float64()*10-5)*4)/4)
		}
		m := 1 + rng.Intn(4)
		for r := 0; r < m; r++ {
			var idx []int
			var coef []float64
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					idx = append(idx, j)
					coef = append(coef, math.Round((rng.Float64()*6-2)*4)/4)
				}
			}
			if idx == nil {
				continue
			}
			rel := []simplex.Relation{simplex.LE, simplex.GE}[rng.Intn(2)]
			rhs := math.Round((rng.Float64()*4-1)*4) / 4
			p.AddRow(idx, coef, rel, rhs)
		}
		intVars := make([]int, nb)
		for j := range intVars {
			intVars[j] = j
		}

		// Oracle: enumerate binary assignments, solve the continuous rest.
		best := math.Inf(1)
		feasible := false
		for mask := 0; mask < 1<<nb; mask++ {
			q := &simplex.Problem{NumVars: p.NumVars, Rows: p.Rows, Rel: p.Rel, RHS: p.RHS}
			q.Obj = append([]float64(nil), p.Obj...)
			q.LB = append([]float64(nil), p.LB...)
			q.UB = append([]float64(nil), p.UB...)
			for j := 0; j < nb; j++ {
				v := float64((mask >> j) & 1)
				q.LB[j], q.UB[j] = v, v
			}
			res, err := simplex.Solve(q, simplex.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == simplex.StatusOptimal {
				feasible = true
				if res.Obj < best {
					best = res.Obj
				}
			}
		}

		res, err := Solve(p, intVars, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feasible {
			if res.Status != StatusInfeasible {
				t.Fatalf("trial %d: status %v, oracle infeasible", trial, res.Status)
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, oracle obj %g", trial, res.Status, best)
		}
		if !approx(res.Obj, best, 1e-5*(1+math.Abs(best))) {
			t.Fatalf("trial %d: obj %g, oracle %g", trial, res.Obj, best)
		}
	}
}

func TestRoundingHeuristicProducesIncumbent(t *testing.T) {
	// Tiny set-cover-like problem where rounding up every fractional value
	// yields a feasible (if suboptimal) incumbent immediately.
	p := &simplex.Problem{}
	n := 6
	var idx []int
	for j := 0; j < n; j++ {
		idx = append(idx, p.AddVar(0, 1, 1+float64(j)*0.1))
	}
	for r := 0; r < 4; r++ {
		p.AddRow([]int{r, r + 1, r + 2}, []float64{1, 1, 1}, simplex.GE, 1)
	}
	called := false
	res, err := Solve(p, idx, Options{
		Rounding: func(x []float64) []float64 {
			called = true
			out := make([]float64, len(x))
			for j, v := range x {
				if v > 1e-9 {
					out[j] = 1
				}
			}
			return out
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("rounding heuristic was never called")
	}
	if res.Status != StatusOptimal {
		t.Errorf("status = %v", res.Status)
	}
}

// TestProposalIncumbentNotAliased guards against tryProposal storing the
// heuristic solver's solution slice without copying: re-solving that solver
// for a later proposal must not be able to mutate the stored incumbent.
func TestProposalIncumbentNotAliased(t *testing.T) {
	// min -2a -b s.t. a + b <= 1: proposal a=1 is optimal (obj -2),
	// proposal b=1 is feasible but worse (obj -1) and must be rejected.
	p := &simplex.Problem{}
	a := p.AddVar(0, 1, -2)
	b := p.AddVar(0, 1, -1)
	p.AddRow([]int{a, b}, []float64{1, 1}, simplex.LE, 1)
	s := &search{opt: Options{}.withDefaults(), p: p, ps: &presolveInfo{}, intVars: []int{a, b}, exact: true, skippedBound: math.Inf(1)}

	s.tryProposal([]float64{1, 0})
	if !s.hasInc || !approx(s.incObj, -2, 1e-9) {
		t.Fatalf("first proposal not adopted: hasInc=%v obj=%g", s.hasInc, s.incObj)
	}
	snap := append([]float64(nil), s.incumbent...)

	// A second, worse proposal re-solves the shared heuristic solver. The
	// incumbent must remain byte-identical to the snapshot.
	s.tryProposal([]float64{0, 1})
	if !approx(s.incObj, -2, 1e-9) {
		t.Errorf("worse proposal replaced the incumbent: obj=%g", s.incObj)
	}
	for j := range snap {
		if s.incumbent[j] != snap[j] {
			t.Fatalf("incumbent[%d] changed from %g to %g after a later proposal", j, snap[j], s.incumbent[j])
		}
	}
}

// TestSkippedSubtreeNotOptimal forces a node-LP failure via a tiny per-LP
// iteration budget: the root relaxation solves, but a deeper node exceeds
// MaxIters on both the warm dual re-solve and the cold retry, so its
// subtree is skipped. The solver must then report StatusFeasible with a
// best-effort bound, never StatusOptimal.
func TestSkippedSubtreeNotOptimal(t *testing.T) {
	// Instance found by seeded search: a tight knapsack (root LP solves in
	// a few pivots) plus a covering row that needs phase-1 work at nodes.
	rng := rand.New(rand.NewSource(28))
	n := 12
	p := &simplex.Problem{}
	var idx []int
	for j := 0; j < n; j++ {
		idx = append(idx, p.AddVar(0, 1, -(1+rng.Float64())))
	}
	wts := make([]float64, n)
	for j := range wts {
		wts[j] = 1 + rng.Float64()
	}
	p.AddRow(idx, wts, simplex.LE, 2.7)
	var cidx []int
	var ccoef []float64
	for j := 0; j < n; j += 2 {
		cidx = append(cidx, j)
		ccoef = append(ccoef, 1)
	}
	p.AddRow(cidx, ccoef, simplex.GE, 1)

	res, err := Solve(p, idx, Options{MaxNodes: 500, LP: simplex.Options{MaxIters: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("expected an inexact search (node LP failure); the instance no longer triggers it")
	}
	if res.Status == StatusOptimal {
		t.Errorf("inexact search claimed StatusOptimal")
	}
	if res.Status != StatusFeasible {
		t.Fatalf("status = %v, want feasible", res.Status)
	}
	if res.X == nil {
		t.Fatal("feasible status without an incumbent")
	}
	if res.Bound > res.Obj+1e-9 {
		t.Errorf("best-effort bound %g exceeds incumbent %g", res.Bound, res.Obj)
	}
	if res.Bound >= res.Obj-1e-9 {
		t.Errorf("bound %g not strictly below incumbent %g: the skipped subtree's gap vanished", res.Bound, res.Obj)
	}
}

// TestZeroGapOptions checks RelGap's negative-means-zero convention: a
// caller can request an exact zero relative gap, while the zero value keeps
// the default.
func TestZeroGapOptions(t *testing.T) {
	if d := (Options{}).withDefaults(); d.RelGap != 1e-6 {
		t.Errorf("zero-value RelGap default %v, want 1e-6", d.RelGap)
	}
	if z := (Options{RelGap: -1}).withDefaults(); z.RelGap != 0 {
		t.Errorf("negative RelGap mapped to %v, want 0", z.RelGap)
	}
	if kept := (Options{RelGap: 1e-3}).withDefaults(); kept.RelGap != 1e-3 {
		t.Errorf("positive RelGap %v, want it kept at 1e-3", kept.RelGap)
	}

	// A zero-gap solve must still terminate and prove optimality.
	p := &simplex.Problem{}
	vals := []float64{10, 13, 7, 11}
	wts := []float64{3, 4, 2, 3}
	var idx []int
	for j := range vals {
		idx = append(idx, p.AddVar(0, 1, -vals[j]))
	}
	p.AddRow(idx, wts, simplex.LE, 7)
	res, err := Solve(p, idx, Options{RelGap: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || !approx(res.Obj, -24, 1e-6) {
		t.Errorf("zero-gap solve: status %v obj %g, want optimal -24", res.Status, res.Obj)
	}
}

func TestTimeLimit(t *testing.T) {
	// A larger knapsack with a nearly-degenerate LP that needs some nodes;
	// with an absurdly small time limit we should still get a clean status.
	rng := rand.New(rand.NewSource(5))
	p := &simplex.Problem{}
	n := 30
	var idx []int
	var wts []float64
	for j := 0; j < n; j++ {
		idx = append(idx, p.AddVar(0, 1, -(1+rng.Float64())))
		wts = append(wts, 1+rng.Float64())
	}
	p.AddRow(idx, wts, simplex.LE, 7.5)
	res, err := Solve(p, idx, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFeasible && res.Status != StatusNoSolution && res.Status != StatusOptimal {
		t.Errorf("status = %v", res.Status)
	}
	if res.Status == StatusFeasible && res.Bound > res.Obj+1e-9 {
		t.Errorf("bound %g exceeds incumbent %g", res.Bound, res.Obj)
	}
}
