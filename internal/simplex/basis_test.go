package simplex

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mixedLP draws a feasible, bounded LP with LE, GE and EQ rows: every row is
// built around a random point inside the variable boxes, so the cold solve
// needs phase 1 and may end with an artificial in the basis.
func mixedLP(seed int64, m, n int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		ub := 1 + math.Round(rng.Float64()*8)
		p.AddVar(0, ub, math.Round((rng.Float64()-0.5)*16)/4)
		x0[j] = ub * rng.Float64()
	}
	for r := 0; r < m; r++ {
		var idx []int
		var coef []float64
		var act float64
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				c := math.Round((rng.Float64()*8-2)*4) / 4
				if c == 0 {
					continue
				}
				idx, coef = append(idx, j), append(coef, c)
				act += c * x0[j]
			}
		}
		if len(idx) == 0 {
			idx, coef, act = []int{r % n}, []float64{1}, x0[r%n]
		}
		switch rng.Intn(3) {
		case 0:
			p.AddRow(idx, coef, LE, act+rng.Float64())
		case 1:
			p.AddRow(idx, coef, GE, act-rng.Float64())
		default:
			p.AddRow(idx, coef, EQ, act)
		}
	}
	return p
}

// countBasic is the number of Basic entries in b.
func countBasic(b *Basis) int {
	n := 0
	for _, st := range append(append([]BasisStatus(nil), b.Cols...), b.Rows...) {
		if st == Basic {
			n++
		}
	}
	return n
}

// TestBasisRoundTrip takes the optimal basis out of a cold solve and starts
// a fresh solver from it: the same objective, and not one pivot.
func TestBasisRoundTrip(t *testing.T) {
	for _, pricing := range []Pricing{PricingDevex, PricingDantzig} {
		for seed := int64(1); seed <= 20; seed++ {
			p := mixedLP(seed, 12, 16)
			s, err := NewSolver(p, Options{Pricing: pricing})
			if err != nil {
				t.Fatal(err)
			}
			cold := s.Solve()
			if cold.Status != StatusOptimal {
				t.Fatalf("seed %d: cold solve %v", seed, cold.Status)
			}
			b := s.Basis()
			if got := countBasic(b); got != len(p.Rows) {
				t.Fatalf("seed %d: %d basics in the basis of %d rows", seed, got, len(p.Rows))
			}
			warm, err := NewSolver(p, Options{Pricing: pricing})
			if err != nil {
				t.Fatal(err)
			}
			res := warm.SolveFrom(b)
			if res.Status != StatusOptimal || !approx(res.Obj, cold.Obj, 1e-9*math.Max(1, math.Abs(cold.Obj))) {
				t.Fatalf("seed %d %v: SolveFrom %v obj %.12g, cold %.12g", seed, pricing, res.Status, res.Obj, cold.Obj)
			}
			if res.Iters != 0 || res.Recovery != nil {
				t.Errorf("seed %d %v: SolveFrom took %d pivots, recovery %+v; want 0 and none", seed, pricing, res.Iters, res.Recovery)
			}
		}
	}
}

// TestSolveFromWrongSizeIsSolve checks that a nil basis, or one sized for
// another problem, solves exactly as Solve does.
func TestSolveFromWrongSizeIsSolve(t *testing.T) {
	p := mixedLP(3, 12, 16)
	want, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Basis{nil, {Cols: make([]BasisStatus, 15), Rows: make([]BasisStatus, 12)}, {Cols: make([]BasisStatus, 16)}} {
		s, err := NewSolver(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := s.SolveFrom(b)
		if got.Status != want.Status || got.Iters != want.Iters || math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
			t.Fatalf("SolveFrom(%v): %v in %d iters, obj %v; Solve: %v in %d iters, obj %v",
				b, got.Status, got.Iters, got.Obj, want.Status, want.Iters, want.Obj)
		}
		for j := range want.X {
			if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
				t.Fatalf("SolveFrom(%v): X[%d] = %v, Solve %v", b, j, got.X[j], want.X[j])
			}
		}
	}
}

// TestSolveFromDuplicateColumnSwapsSlack starts from a basis holding two
// identical columns: the factorization finds no pivot for the second, a
// row slack is swapped in, and the solve still ends at the optimum.
func TestSolveFromDuplicateColumnSwapsSlack(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(0, 4, -1)
	y := p.AddVar(0, 4, -1) // the same column as x
	z := p.AddVar(0, 4, -2)
	p.AddRow([]int{x, y, z}, []float64{1, 1, 1}, LE, 5)
	p.AddRow([]int{x, y, z}, []float64{2, 2, 1}, LE, 8)
	cold, err := Solve(p, Options{})
	if err != nil || cold.Status != StatusOptimal {
		t.Fatalf("cold: %v %v", cold, err)
	}
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	log := &factorLog{basisKernel: s.kern}
	s.kern = log
	res := s.SolveFrom(&Basis{Cols: []BasisStatus{Basic, Basic, AtLower}, Rows: []BasisStatus{AtLower, AtLower}})
	if res.Status != StatusOptimal || !approx(res.Obj, cold.Obj, 1e-9) {
		t.Fatalf("SolveFrom: %v obj %v, want optimal %v", res.Status, res.Obj, cold.Obj)
	}
	if len(log.bases) < 2 {
		t.Fatalf("%d factorizations; want the singular one and the one after the swap", len(log.bases))
	}
	first, second := log.bases[0], log.bases[1]
	if first[0] != x || first[1] != y || (second[0] < s.n && second[1] < s.n) {
		t.Errorf("factored %v then %v; want {x, y} and then a slack in place of one of them", first, second)
	}
	if res.Recovery != nil {
		t.Errorf("Recovery = %+v; the swap is not a rung", res.Recovery)
	}
}

// TestSolveFromDemotesFixedExcessBasic offers the optimal basis plus the
// slack of an EQ row as one basic too many: the fixed slack is the one
// demoted, and the start is still optimal at once.
func TestSolveFromDemotesFixedExcessBasic(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(0, 10, -1)
	y := p.AddVar(0, 10, -1)
	p.AddRow([]int{x, y}, []float64{1, 1}, EQ, 4)
	p.AddRow([]int{x, y}, []float64{1, -1}, LE, 2)
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := s.Solve()
	b := s.Basis()
	if cold.Status != StatusOptimal || b.Rows[0] == Basic {
		t.Fatalf("setup: %v, EQ slack %v", cold.Status, b.Rows[0])
	}
	b.Rows[0] = Basic
	warm, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := warm.SolveFrom(b)
	if res.Status != StatusOptimal || !approx(res.Obj, cold.Obj, 1e-9) || res.Iters != 0 {
		t.Fatalf("SolveFrom: %v obj %v in %d pivots; want optimal %v in 0", res.Status, res.Obj, res.Iters, cold.Obj)
	}
	if got := warm.Basis().Rows[0]; got == Basic {
		t.Errorf("EQ slack still basic; want it demoted")
	}
}

// TestSolveFromTooFewBasics drops basics from optimal bases: row slacks
// make up the count, and the solve still ends at the optimum.
func TestSolveFromTooFewBasics(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := mixedLP(seed, 12, 16)
		s, err := NewSolver(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold := s.Solve()
		b := s.Basis()
		dropped := 0
		for j, st := range b.Cols {
			if st == Basic && dropped < 2 {
				b.Cols[j], dropped = AtLower, dropped+1
			}
		}
		warm, err := NewSolver(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := warm.SolveFrom(b)
		if res.Status != StatusOptimal || !approx(res.Obj, cold.Obj, 1e-9*math.Max(1, math.Abs(cold.Obj))) {
			t.Fatalf("seed %d, %d basics dropped: SolveFrom %v obj %.12g, cold %.12g", seed, dropped, res.Status, res.Obj, cold.Obj)
		}
	}
}

// TestSolveFromInfeasibleStartGoesCold starts from a basis that is neither
// primal feasible (a GE row's basic slack on the wrong side) nor dual
// feasible by a bound flip (x at lower, improving, with no upper bound):
// the dual path cannot start, and the solve takes the cold rung.
func TestSolveFromInfeasibleStartGoesCold(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(0, math.Inf(1), -1)
	p.AddRow([]int{x}, []float64{1}, LE, 5)
	p.AddRow([]int{x}, []float64{1}, GE, 1)
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := s.SolveFrom(&Basis{Cols: []BasisStatus{AtLower}, Rows: []BasisStatus{Basic, Basic}})
	if res.Status != StatusOptimal || !approx(res.Obj, -5, 1e-9) {
		t.Fatalf("SolveFrom: %v obj %v, want optimal -5", res.Status, res.Obj)
	}
	if res.Recovery == nil || len(res.Recovery.Rungs) != 1 || res.Recovery.Rungs[0] != RungCold {
		t.Errorf("Recovery = %+v, want the cold rung alone", res.Recovery)
	}
}

// TestSolveFromFaultReachesFactor fails the first refactorization: the one
// SolveFrom factors its start with, which therefore goes cold.
func TestSolveFromFaultReachesFactor(t *testing.T) {
	p := mixedLP(5, 12, 16)
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := s.Solve()
	b := s.Basis()
	f := &stubFault{failRefactors: 1}
	warm, err := NewSolver(p, Options{Fault: f})
	if err != nil {
		t.Fatal(err)
	}
	res := warm.SolveFrom(b)
	if f.refactorCalls == 0 {
		t.Fatal("the injector was never consulted")
	}
	if res.Status != StatusOptimal || !approx(res.Obj, cold.Obj, 1e-9*math.Max(1, math.Abs(cold.Obj))) {
		t.Fatalf("SolveFrom: %v obj %v, want optimal %v", res.Status, res.Obj, cold.Obj)
	}
	if res.Recovery == nil || res.Recovery.Rungs[0] != RungCold {
		t.Errorf("Recovery = %+v, want the cold rung first", res.Recovery)
	}
}

// TestBasisReportsArtificialAsSlack solves an LP with two dependent EQ rows,
// so that phase 1 leaves an artificial basic at zero: Basis reports its
// row's slack instead, and that basis starts a fresh solver at the optimum.
func TestBasisReportsArtificialAsSlack(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(0, 3, -1)
	y := p.AddVar(0, 3, -2)
	p.AddRow([]int{x, y}, []float64{1, 1}, EQ, 4)
	p.AddRow([]int{x, y}, []float64{2, 2}, EQ, 8)
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := s.Solve()
	art := false
	for j := s.n + s.m; j < s.ncols; j++ {
		art = art || s.vstat[j] == isBasic
	}
	if cold.Status != StatusOptimal || !art {
		t.Fatalf("setup: %v, artificial basic %v", cold.Status, art)
	}
	b := s.Basis()
	if got := countBasic(b); got != len(p.Rows) {
		t.Fatalf("%d basics in %+v, want %d", got, b, len(p.Rows))
	}
	warm, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := warm.SolveFrom(b); res.Status != StatusOptimal || !approx(res.Obj, cold.Obj, 1e-9) || res.Iters != 0 {
		t.Fatalf("SolveFrom: %v obj %v in %d pivots; want optimal %v in 0", res.Status, res.Obj, res.Iters, cold.Obj)
	}
}

// TestSolveFromRefusedRung pins SolveFrom's verdict on its own start for
// four starts from a basis. A start that hits the iteration limit, or that
// the perturb rung accepts at a point off a row (the row x + w ≥ 5e-6 is
// within the rung's hundredfold-looser tolerance at x = w = 0), climbs the
// refused rung and is solved again cold in the same call, with both
// attempts' pivots counted. An infeasible verdict and a canceled solve
// stand.
func TestSolveFromRefusedRung(t *testing.T) {
	p := mixedLP(3, 12, 16)
	slack := &Basis{Cols: make([]BasisStatus, 16), Rows: make([]BasisStatus, 12)}
	for r := range slack.Rows {
		slack.Rows[r] = Basic
	}

	offRow := &Problem{}
	x := offRow.AddVar(0, 1, 1)
	w := offRow.AddVar(0, 1, 1)
	y := offRow.AddVar(0, 1, -1)
	offRow.AddRow([]int{x, w}, []float64{1, 1}, GE, 5e-6)
	offRow.AddRow([]int{y, x, w}, []float64{1, 1, -1}, LE, 1.5)
	s, err := NewSolver(offRow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	offRowCold := s.Solve()
	offRowBasis := s.Basis()

	// Optimal at (a, c) = (1, 3); both at least 3 leaves no point with
	// a + c ≤ 4.
	boxed := &Problem{}
	a := boxed.AddVar(0, 10, -1)
	c := boxed.AddVar(0, 10, -2)
	boxed.AddRow([]int{a, c}, []float64{1, 1}, LE, 4)
	boxed.AddRow([]int{a, c}, []float64{1, -1}, GE, -2)
	if s, err = NewSolver(boxed, Options{}); err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal {
		t.Fatalf("setup: %v", res.Status)
	}
	boxedBasis := s.Basis()

	polls := 0
	for _, tc := range []struct {
		name    string
		p       *Problem
		opt     Options
		b       *Basis
		bounds  func(*Solver)
		status  Status
		rungs   []string
		refused string
		iters   int // both attempts' pivots
	}{
		// One pivot from the basis, one cold.
		{name: "iteration limit", p: p, opt: Options{MaxIters: 1}, b: slack,
			status: StatusIterLimit, rungs: []string{RungRefused}, refused: "ended iteration-limit", iters: 2},
		// The dual pass, the cold and the bland restarts stall; the perturb
		// rung enters y at its bound in one pivot; the cold solve then
		// takes as many as a fault-free one.
		{name: "perturb off a row", p: offRow, opt: Options{Fault: &stubFault{stallFirst: 3}}, b: offRowBasis,
			status: StatusOptimal, rungs: []string{RungCold, RungBland, RungPerturb, RungRefused},
			refused: "violates a row of the problem and is refused", iters: 1 + offRowCold.Iters},
		{name: "infeasible", p: boxed, b: boxedBasis,
			bounds: func(s *Solver) { s.SetBound(a, 3, 10); s.SetBound(c, 3, 10) },
			status: StatusInfeasible, iters: 1},
		// The hook lets three pivots through.
		{name: "canceled", p: p, opt: Options{Canceled: func() bool { polls++; return polls > 3 }}, b: slack,
			status: StatusCanceled, iters: 3},
	} {
		s, err := NewSolver(tc.p, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if tc.bounds != nil {
			tc.bounds(s)
		}
		res := s.SolveFrom(tc.b)
		var rungs []string
		var restarts int
		var refused string
		if res.Recovery != nil {
			rungs, restarts, refused = res.Recovery.Rungs, res.Recovery.Restarts, res.Recovery.Refused
		}
		if res.Status != tc.status || res.Iters != tc.iters {
			t.Errorf("%s: %v in %d pivots, want %v in %d", tc.name, res.Status, res.Iters, tc.status, tc.iters)
		}
		if fmt.Sprint(rungs) != fmt.Sprint(tc.rungs) || restarts != len(tc.rungs) || refused != tc.refused {
			t.Errorf("%s: Recovery = %+v, want rungs %v and refused %q", tc.name, res.Recovery, tc.rungs, tc.refused)
		}
		if tc.p == offRow && !approx(res.Obj, offRowCold.Obj, 1e-12) {
			t.Errorf("%s: obj %.12g, want the cold solve's %.12g", tc.name, res.Obj, offRowCold.Obj)
		}
	}
}
