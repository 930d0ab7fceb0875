package simplex

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// solveOrFatal runs Solve and fails the test on a non-optimal status.
func solveOrFatal(t *testing.T, p *Problem) *Result {
	t.Helper()
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	return res
}

func TestSimpleLP(t *testing.T) {
	// max x+y s.t. x+2y<=4, 3x+y<=6, x,y>=0  => min -(x+y), opt at (1.6,1.2), obj 2.8.
	p := &Problem{}
	x := p.AddVar(0, math.Inf(1), -1)
	y := p.AddVar(0, math.Inf(1), -1)
	p.AddRow([]int{x, y}, []float64{1, 2}, LE, 4)
	p.AddRow([]int{x, y}, []float64{3, 1}, LE, 6)
	res := solveOrFatal(t, p)
	if !approx(res.Obj, -2.8, 1e-8) {
		t.Errorf("obj = %g, want -2.8", res.Obj)
	}
	if !approx(res.X[x], 1.6, 1e-8) || !approx(res.X[y], 1.2, 1e-8) {
		t.Errorf("x = %v, want (1.6, 1.2)", res.X)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min 2x+3y s.t. x+y=10, x>=3, y>=2 (as GE rows), x,y>=0 => x=8,y=2, obj 22.
	p := &Problem{}
	x := p.AddVar(0, math.Inf(1), 2)
	y := p.AddVar(0, math.Inf(1), 3)
	p.AddRow([]int{x, y}, []float64{1, 1}, EQ, 10)
	p.AddRow([]int{x}, []float64{1}, GE, 3)
	p.AddRow([]int{y}, []float64{1}, GE, 2)
	res := solveOrFatal(t, p)
	if !approx(res.Obj, 22, 1e-8) {
		t.Errorf("obj = %g, want 22", res.Obj)
	}
}

func TestBoundedVariables(t *testing.T) {
	// min -x-2y with 0<=x<=1, 0<=y<=2, x+y<=2.5 => y=2, x=0.5, obj -4.5.
	p := &Problem{}
	x := p.AddVar(0, 1, -1)
	y := p.AddVar(0, 2, -2)
	p.AddRow([]int{x, y}, []float64{1, 1}, LE, 2.5)
	res := solveOrFatal(t, p)
	if !approx(res.Obj, -4.5, 1e-8) {
		t.Errorf("obj = %g, want -4.5", res.Obj)
	}
	if !approx(res.X[x], 0.5, 1e-8) || !approx(res.X[y], 2, 1e-8) {
		t.Errorf("x = %v, want (0.5, 2)", res.X)
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x+y with -5<=x<=5, -3<=y<=3, x+y>=-6 => x=-5, y=-1 or x=-3,y=-3; obj -6.
	p := &Problem{}
	x := p.AddVar(-5, 5, 1)
	y := p.AddVar(-3, 3, 1)
	p.AddRow([]int{x, y}, []float64{1, 1}, GE, -6)
	res := solveOrFatal(t, p)
	if !approx(res.Obj, -6, 1e-8) {
		t.Errorf("obj = %g, want -6", res.Obj)
	}
}

// TestFreeVariable: a column with neither bound finite is refused, by
// name, before any solve; every model the repo builds bounds its columns
// on at least one side.
func TestFreeVariable(t *testing.T) {
	p := &Problem{}
	p.AddVar(0, 1, 1)
	x := p.AddVar(math.Inf(-1), math.Inf(1), 1)
	p.AddRow([]int{x}, []float64{1}, GE, -7)
	_, err := NewSolver(p, Options{})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("variable %d is free", x)) {
		t.Errorf("NewSolver error = %v, want one naming variable %d as free", err, x)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(0, 1, 1)
	p.AddRow([]int{x}, []float64{1}, GE, 2)
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestInfeasibleEqualities(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(0, 10, 0)
	y := p.AddVar(0, 10, 0)
	p.AddRow([]int{x, y}, []float64{1, 1}, EQ, 5)
	p.AddRow([]int{x, y}, []float64{1, 1}, EQ, 7)
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(0, math.Inf(1), -1)
	y := p.AddVar(0, math.Inf(1), 0)
	p.AddRow([]int{x, y}, []float64{1, -1}, LE, 1)
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnbounded {
		t.Errorf("status = %v, want unbounded", res.Status)
	}
}

func TestNoRows(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(-2, 5, 3)
	y := p.AddVar(-1, 4, -2)
	res := solveOrFatal(t, p)
	if !approx(res.Obj, 3*-2+(-2)*4, 1e-9) {
		t.Errorf("obj = %g, want -14", res.Obj)
	}
	_ = x
	_ = y
}

func TestDegenerate(t *testing.T) {
	// A classic degenerate LP; must terminate and find obj.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7 (Beale's cycling example shape)
	p := &Problem{}
	inf := math.Inf(1)
	x4 := p.AddVar(0, inf, -0.75)
	x5 := p.AddVar(0, inf, 150)
	x6 := p.AddVar(0, inf, -0.02)
	x7 := p.AddVar(0, inf, 6)
	p.AddRow([]int{x4, x5, x6, x7}, []float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddRow([]int{x4, x5, x6, x7}, []float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddRow([]int{x6}, []float64{1}, LE, 1)
	res := solveOrFatal(t, p)
	if !approx(res.Obj, -0.05, 1e-8) {
		t.Errorf("obj = %g, want -0.05", res.Obj)
	}
}

func TestEqualityWithNegativeRHS(t *testing.T) {
	// min x+2y s.t. -x-y = -4, 0<=x,y<=10 => x=4,y=0 obj 4.
	p := &Problem{}
	x := p.AddVar(0, 10, 1)
	y := p.AddVar(0, 10, 2)
	p.AddRow([]int{x, y}, []float64{-1, -1}, EQ, -4)
	res := solveOrFatal(t, p)
	if !approx(res.Obj, 4, 1e-8) {
		t.Errorf("obj = %g, want 4", res.Obj)
	}
}

// TestRandomVsOracle cross-checks the revised simplex against the naive
// dense-tableau oracle on randomly generated bounded LPs.
func TestRandomVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		c := make([]float64, n)
		u := make([]float64, n)
		for j := range c {
			c[j] = math.Round((rng.Float64()*20-10)*8) / 8
			if rng.Intn(3) == 0 {
				u[j] = math.Inf(1)
			} else {
				u[j] = math.Round(rng.Float64()*80) / 8
			}
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for r := range a {
			a[r] = make([]float64, n)
			for j := range a[r] {
				if rng.Intn(2) == 0 {
					a[r][j] = math.Round((rng.Float64()*10-3)*8) / 8
				}
			}
			b[r] = math.Round(rng.Float64()*10*8) / 8
		}
		want, ok := naiveSolve(c, a, b, u)

		p := &Problem{}
		for j := 0; j < n; j++ {
			p.AddVar(0, u[j], c[j])
		}
		for r := 0; r < m; r++ {
			var idx []int
			var coef []float64
			for j := 0; j < n; j++ {
				if a[r][j] != 0 {
					idx = append(idx, j)
					coef = append(coef, a[r][j])
				}
			}
			if idx == nil {
				idx, coef = []int{0}, []float64{0}
			}
			p.AddRow(idx, coef, LE, b[r])
		}
		res, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !ok {
			if res.Status != StatusUnbounded {
				t.Fatalf("trial %d: status %v, oracle says unbounded", trial, res.Status)
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, oracle optimal %g", trial, res.Status, want)
		}
		if !approx(res.Obj, want, 1e-6*(1+math.Abs(want))) {
			t.Fatalf("trial %d: obj %g, oracle %g", trial, res.Obj, want)
		}
	}
}

// TestDualReSolveMatchesColdSolve fixes variables after an optimal solve and
// checks the warm dual re-solve against a cold solve of the modified
// problem.
func TestDualReSolveMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		m := 1 + rng.Intn(7)
		p := &Problem{}
		for j := 0; j < n; j++ {
			p.AddVar(0, 1, math.Round((rng.Float64()*10-5)*8)/8)
		}
		for r := 0; r < m; r++ {
			var idx []int
			var coef []float64
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					idx = append(idx, j)
					coef = append(coef, math.Round((rng.Float64()*8-2)*8)/8)
				}
			}
			if idx == nil {
				continue
			}
			rel := []Relation{LE, GE, EQ}[rng.Intn(3)]
			rhs := math.Round((rng.Float64()*float64(len(idx))*0.8)*8) / 8
			p.AddRow(idx, coef, rel, rhs)
		}
		s, err := NewSolver(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Solve()
		if res.Status != StatusOptimal {
			continue // infeasible/unbounded random instance; skip
		}
		// Fix a few variables to 0 or 1 (branching), then relax one back.
		mod := &Problem{}
		*mod = *p
		mod.LB = append([]float64(nil), p.LB...)
		mod.UB = append([]float64(nil), p.UB...)
		for f := 0; f < 1+rng.Intn(3); f++ {
			j := rng.Intn(n)
			v := float64(rng.Intn(2))
			s.SetBound(j, v, v)
			mod.LB[j], mod.UB[j] = v, v
		}
		warm := s.ReSolveDual()
		cold, err := Solve(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if warm.Status == StatusOptimal && !approx(warm.Obj, cold.Obj, 1e-6*(1+math.Abs(cold.Obj))) {
			t.Fatalf("trial %d: warm obj %g, cold %g", trial, warm.Obj, cold.Obj)
		}
		// Now relax the bounds back and re-solve: must recover the original
		// optimum.
		for j := 0; j < n; j++ {
			s.SetBound(j, p.LB[j], p.UB[j])
		}
		back := s.ReSolveDual()
		if back.Status != StatusOptimal {
			t.Fatalf("trial %d: relax-back status %v", trial, back.Status)
		}
		if !approx(back.Obj, res.Obj, 1e-6*(1+math.Abs(res.Obj))) {
			t.Fatalf("trial %d: relax-back obj %g, original %g", trial, back.Obj, res.Obj)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(1, 0, 0) // inverted bounds
	if err := p.Validate(); err == nil {
		t.Error("want error for inverted bounds")
	}
	p.LB[x] = 0
	p.AddRow([]int{5}, []float64{1}, LE, 1) // bad index
	if err := p.Validate(); err == nil {
		t.Error("want error for bad index")
	}
}

func TestIterationLimit(t *testing.T) {
	p := &Problem{}
	n := 10
	for j := 0; j < n; j++ {
		p.AddVar(0, math.Inf(1), -1)
	}
	for r := 0; r < n; r++ {
		idx := make([]int, n)
		coef := make([]float64, n)
		for j := 0; j < n; j++ {
			idx[j] = j
			coef[j] = 1 / float64(r+j+1)
		}
		p.AddRow(idx, coef, LE, 1)
	}
	res, err := Solve(p, Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusIterLimit && res.Status != StatusOptimal {
		t.Errorf("status = %v, want iteration-limit (or optimal if solved in 1)", res.Status)
	}
}

// TestPhase1CostRestoredOnReSolve is a regression test: after a re-solve
// that ends infeasible via the phase-1 fallback, a later ReSolveDual must
// price with the true costs again (not the leftover phase-1 costs), or it
// silently returns non-optimal points as "optimal".
func TestPhase1CostRestoredOnReSolve(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(0, 1, -3)
	y := p.AddVar(0, 1, -2)
	p.AddRow([]int{x, y}, []float64{1, 1}, LE, 1.5)
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusOptimal || !approx(res.Obj, -4, 1e-9) {
		t.Fatalf("initial solve: %v %g", res.Status, res.Obj)
	}
	// Force infeasibility: both variables fixed to 1 violates the row.
	s.SetBound(x, 1, 1)
	s.SetBound(y, 1, 1)
	if r := s.ReSolveDual(); r.Status != StatusInfeasible {
		t.Fatalf("fixed-both status %v, want infeasible", r.Status)
	}
	// Relax and re-solve: must recover the true optimum with true costs.
	s.SetBound(x, 0, 1)
	s.SetBound(y, 0, 1)
	back := s.ReSolveDual()
	if back.Status != StatusOptimal || !approx(back.Obj, -4, 1e-9) {
		t.Fatalf("relax-back: %v obj=%g, want optimal -4", back.Status, back.Obj)
	}
}

func TestNonzeroBudgetGuard(t *testing.T) {
	// 10 rows with one structural nonzero each plus 10 slacks = 20 nonzeros.
	p := &Problem{}
	x := p.AddVar(0, 1, 1)
	for r := 0; r < 10; r++ {
		p.AddRow([]int{x}, []float64{1}, LE, 1)
	}
	if _, err := NewSolver(p, Options{maxFactorNonzeros: 15}); err == nil {
		t.Fatal("want error above the nonzero budget")
	}
	if _, err := NewSolver(p, Options{maxFactorNonzeros: 40}); err != nil {
		t.Fatalf("below the budget: %v", err)
	}
	// An m = 10000 problem — rejected outright by the retired MaxDenseRows
	// guard — is admitted when sparse.
	big := &Problem{}
	v := big.AddVar(0, 1, -1)
	for r := 0; r < 10000; r++ {
		big.AddRow([]int{v}, []float64{1}, LE, 1)
	}
	if _, err := NewSolver(big, Options{}); err != nil {
		t.Fatalf("sparse m=10000 rejected: %v", err)
	}
}

func TestFixedVariables(t *testing.T) {
	// Variables fixed by equal bounds participate correctly.
	p := &Problem{}
	x := p.AddVar(2, 2, 1)
	y := p.AddVar(0, 10, 1)
	p.AddRow([]int{x, y}, []float64{1, 1}, GE, 5)
	res := solveOrFatal(t, p)
	if !approx(res.Obj, 5, 1e-9) || !approx(res.X[x], 2, 1e-12) {
		t.Errorf("obj=%g x=%g, want 5 and 2", res.Obj, res.X[x])
	}
}

// TestColdSolvesDropArtificials pins that a cold solve discards the
// artificial columns of the one before it: three EQ rows need three
// artificials each time, and five solves in a row must not stack them
// (n+m = 9 columns, at most m more), nor move the optimum.
func TestColdSolvesDropArtificials(t *testing.T) {
	p := &Problem{}
	var x [6]int
	for j := range x {
		x[j] = p.AddVar(0, 4, float64(j%3)-1)
	}
	p.AddRow([]int{x[0], x[1], x[2]}, []float64{1, 1, 1}, EQ, 3)
	p.AddRow([]int{x[2], x[3], x[4]}, []float64{1, 2, 1}, EQ, 4)
	p.AddRow([]int{x[4], x[5], x[0]}, []float64{1, 1, -1}, EQ, 2)
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := s.Solve()
	if first.Status != StatusOptimal {
		t.Fatalf("status %v, want optimal", first.Status)
	}
	for i := 0; i < 5; i++ {
		res := s.Solve()
		if s.ncols > s.n+2*s.m {
			t.Fatalf("solve %d: %d columns, want at most n+2m = %d", i+2, s.ncols, s.n+2*s.m)
		}
		if res.Status != StatusOptimal || res.Obj != first.Obj || res.Iters != first.Iters {
			t.Fatalf("solve %d: %v obj=%g iters=%d, want the first solve's optimal %g in %d",
				i+2, res.Status, res.Obj, res.Iters, first.Obj, first.Iters)
		}
	}
}
