package simplex

import (
	"math"
	"testing"
)

// TestSetBoundStatusTransitions: SetBound stores finite bounds and leaves
// every status as it was — a nonbasic variable keeps its side and moves
// with that bound, a basic one stays basic.
func TestSetBoundStatusTransitions(t *testing.T) {
	s, err := NewSolver(recoveryLP(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := 0
	cases := []struct {
		name   string
		start  int8
		lb, ub float64
	}{
		{"lower-stays", nbLower, 0, 2},
		{"lower-stays-fixed", nbLower, 1, 1},
		{"upper-stays", nbUpper, 0, 2},
		{"upper-stays-fixed", nbUpper, 0, 0},
		{"basic-untouched", isBasic, -1, 1},
	}
	for _, c := range cases {
		s.vstat[j] = c.start
		s.SetBound(j, c.lb, c.ub)
		if s.vstat[j] != c.start {
			t.Errorf("%s: status = %d, want %d", c.name, s.vstat[j], c.start)
		}
		if lb, ub := s.Bounds(j); lb != c.lb || ub != c.ub {
			t.Errorf("%s: bounds = [%v,%v], want [%v,%v]", c.name, lb, ub, c.lb, c.ub)
		}
	}
}

// TestRepairDualFeasibilityUnrepairableFlip drives repairDualFeasibility
// into the path where a violated reduced-cost sign cannot be fixed by a
// bound flip because the opposite bound is infinite: the repair must report
// false, and a start from that basis must fall back to a cold solve rather
// than start the dual pass from an invalid point.
func TestRepairDualFeasibilityUnrepairableFlip(t *testing.T) {
	// min −x with x ∈ [0,∞) and a roomy row x ≤ 5. Starting from the slack
	// basis, x sits at its lower bound with reduced cost −1, and it has no
	// upper bound to flip to.
	p := &Problem{}
	x := p.AddVar(0, math.Inf(1), -1)
	p.AddRow([]int{x}, []float64{1}, LE, 5)
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal || !approx(res.Obj, -5, 1e-9) {
		t.Fatalf("initial solve: status=%v obj=%v", res.Status, res.Obj)
	}
	b := &Basis{Cols: []BasisStatus{AtLower}, Rows: []BasisStatus{Basic}}
	if !s.install(b) {
		t.Fatal("the slack basis does not factor")
	}
	s.pcost = append(s.pcost[:0], s.cost...)
	if s.repairDualFeasibility() {
		t.Error("repairDualFeasibility repaired an unrepairable flip")
	}
	res := s.SolveFrom(b)
	if res.Status != StatusOptimal {
		t.Fatalf("SolveFrom status = %v, want optimal via cold restart", res.Status)
	}
	if !approx(res.Obj, -5, 1e-6) || !approx(res.X[x], 5, 1e-6) {
		t.Errorf("obj=%v x=%v, want -5 and 5", res.Obj, res.X[x])
	}
	if res.Recovery == nil || len(res.Recovery.Rungs) != 1 || res.Recovery.Rungs[0] != RungCold {
		t.Errorf("Recovery = %+v, want the cold rung alone", res.Recovery)
	}
}

// shrinkFtranKernel wraps the real basis kernel and scales the output of
// one chosen ftran call by 1e-30, simulating the eta-file drift where the
// row-wise alpha (computed via BTRAN of a unit row) says a pivot element is
// healthy but the FTRAN column disagrees.
type shrinkFtranKernel struct {
	basisKernel
	calls     int
	corruptAt int // 1-based index of the ftran call to corrupt; 0 disarms
}

func (k *shrinkFtranKernel) ftran(v []float64) {
	k.basisKernel.ftran(v)
	k.calls++
	if k.calls == k.corruptAt {
		for i := range v {
			v[i] *= 1e-30
		}
	}
}

// TestDualPivotGuardRefactorsInPlace checks the runDual tiny-pivot guard
// behind eta updates: when the FTRAN column's pivot element collapses below
// the pivot tolerance even though the rho-based eligibility test passed,
// the pass must neither divide by it nor give up, but refactorize, price
// the iteration again and finish optimal — rung refactor, no cold restart.
// Call 1 is repairDualFeasibility's computeXB; call 2 is the dual pivot's
// entering column.
func TestDualPivotGuardRefactorsInPlace(t *testing.T) {
	s, err := NewSolver(recoveryLP(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal {
		t.Fatalf("initial solve: %v", res.Status)
	}
	if s.updates == 0 {
		t.Fatal("setup assumption broken: no eta updates behind the re-solve")
	}
	s.SetBound(0, 0, 0.5) // x was basic at 1.6: a dual pivot is required
	shim := &shrinkFtranKernel{basisKernel: s.kern, corruptAt: 2}
	s.kern = shim
	res := s.ReSolveDual()
	if shim.calls < shim.corruptAt {
		t.Fatalf("only %d ftran calls; the corruption never fired", shim.calls)
	}
	if res.Status != StatusOptimal || !approx(res.Obj, -2.25, 1e-9) {
		t.Fatalf("ReSolveDual: status %v, obj %v; want optimal -2.25", res.Status, res.Obj)
	}
	if res.Recovery == nil || len(res.Recovery.Rungs) != 1 || res.Recovery.Rungs[0] != RungRefactor || res.Recovery.Restarts != 0 {
		t.Errorf("Recovery = %+v, want the refactor rung alone and no restart", res.Recovery)
	}
}

// TestDualPivotGuardRecovery is the guard on a fresh factorization, where
// there is no eta file to blame: refactorEvery 1 makes ReSolveDual
// refactorize on entry, the pass aborts at the collapsed pivot, and the
// cold restart must still deliver the true optimum.
func TestDualPivotGuardRecovery(t *testing.T) {
	s, err := NewSolver(recoveryLP(), Options{refactorEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal {
		t.Fatalf("initial solve: %v", res.Status)
	}
	s.SetBound(0, 0, 0.5)
	shim := &shrinkFtranKernel{basisKernel: s.kern, corruptAt: 2}
	s.kern = shim
	res := s.ReSolveDual()
	if res.Status != StatusOptimal {
		t.Fatalf("ReSolveDual status = %v, want optimal despite corrupted pivot", res.Status)
	}
	// max x+y, x+2y≤4, 3x+y≤6, x≤0.5 → (0.5, 1.75), minimized obj −2.25.
	if !approx(res.Obj, -2.25, 1e-6) {
		t.Errorf("obj = %v, want -2.25", res.Obj)
	}
	if shim.calls < shim.corruptAt {
		t.Fatalf("only %d ftran calls; the corruption never fired", shim.calls)
	}
	if res.Recovery == nil || len(res.Recovery.Rungs) != 1 || res.Recovery.Rungs[0] != RungCold {
		t.Errorf("Recovery = %+v, want the cold rung alone", res.Recovery)
	}
}

// factorLog wraps the basis kernel and keeps, for every factorization that
// reaches it, a copy of the basis and the number of updates absorbed
// before it.
type factorLog struct {
	basisKernel
	updates   int
	bases     [][]int
	updatesAt []int
}

func (k *factorLog) factor(basic []int, cols [][]colEntry, pivotTol float64) error {
	k.bases = append(k.bases, append([]int(nil), basic...))
	k.updatesAt = append(k.updatesAt, k.updates)
	return k.basisKernel.factor(basic, cols, pivotTol)
}

func (k *factorLog) update(r int, w []float64) {
	k.updates++
	k.basisKernel.update(r, w)
}

// rollbackSetup solves a sparse LP with refactorEvery 2, then fixes every
// basic structural that sits inside its bounds at its lower bound, so that
// the dual pass takes many pivots and refactorizes every two of them. It
// returns the solver with the fault armed on the first refactorization
// inside runDual, the basis that pass starts from, the kernel log, and the
// cold optimum of the re-bounded LP.
func rollbackSetup(t *testing.T, twice bool) (*Solver, []int, *factorLog, *Result) {
	t.Helper()
	p := benchLP(40, 40, 3)
	s, err := NewSolver(p, Options{refactorEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal {
		t.Fatalf("initial solve: %v", res.Status)
	}
	for r, j := range s.basic {
		if j < s.n && s.xB[r] > s.lb[j]+1e-3 {
			s.SetBound(j, s.lb[j], s.lb[j])
			p.UB[j] = p.LB[j]
		}
	}
	cold, err := Solve(p, Options{})
	if err != nil || cold.Status != StatusOptimal {
		t.Fatalf("cold solve: %v, %v", cold, err)
	}
	// ReSolveDual refactorizes on entry after any update (refactorEvery/2
	// is 1); the refactorization after that is runDual's first.
	n := 1
	if s.updates >= s.opt.refactorEvery/2 || s.kern.refreshDue() {
		n = 2
	}
	s.opt.Fault = &failNthRefactor{n: n, twice: twice}
	log := &factorLog{basisKernel: s.kern}
	s.kern = log
	return s, append([]int(nil), s.basic...), log, cold
}

// TestDualRollbackOnFailedRefactor fails runDual's first scheduled
// refactorization: the pass must undo its pivots to the basis it began
// from, factor that one, and finish there to the cold optimum — rung
// rollback, no cold restart.
func TestDualRollbackOnFailedRefactor(t *testing.T) {
	s, start, log, cold := rollbackSetup(t, false)
	res := s.ReSolveDual()
	if res.Status != StatusOptimal || !approx(res.Obj, cold.Obj, 1e-9) {
		t.Fatalf("ReSolveDual: status %v, obj %.12g; want optimal %.12g", res.Status, res.Obj, cold.Obj)
	}
	if res.Recovery == nil || len(res.Recovery.Rungs) != 1 || res.Recovery.Rungs[0] != RungRollback || res.Recovery.Restarts != 0 {
		t.Fatalf("Recovery = %+v, want the rollback rung alone and no restart", res.Recovery)
	}
	// The failed call never reaches the kernel: the rollback's factor is the
	// kernel's n-th, behind the pivots the pass took before the failure.
	i := s.opt.Fault.(*failNthRefactor).n - 1
	if len(log.bases) <= i || log.updatesAt[i] == 0 {
		t.Fatalf("factor calls %d, updates before each %v: no pivot before the rollback", len(log.bases), log.updatesAt)
	}
	for r := range start {
		if log.bases[i][r] != start[r] {
			t.Fatalf("rollback factored basis %v, want the pass's starting basis %v", log.bases[i], start)
		}
	}
	if cap(s.cand) == 0 {
		t.Error("the pass finished without the Harris ratio test")
	}
}

// TestDualRollbackThenColdOnSecondFailure fails the rolled-back basis's
// refactorization too: a pass rolls back once, so the second failure must
// reach the cold rung — and still end optimal.
func TestDualRollbackThenColdOnSecondFailure(t *testing.T) {
	s, _, _, cold := rollbackSetup(t, true)
	res := s.ReSolveDual()
	if res.Status != StatusOptimal || !approx(res.Obj, cold.Obj, 1e-9) {
		t.Fatalf("ReSolveDual: status %v, obj %.12g; want optimal %.12g", res.Status, res.Obj, cold.Obj)
	}
	want := []string{RungRollback, RungCold}
	if res.Recovery == nil || len(res.Recovery.Rungs) != len(want) || res.Recovery.Restarts != 1 {
		t.Fatalf("Recovery = %+v, want rungs %v and one restart", res.Recovery, want)
	}
	for i, rung := range want {
		if res.Recovery.Rungs[i] != rung {
			t.Errorf("Rungs[%d] = %q, want %q", i, res.Recovery.Rungs[i], rung)
		}
	}
}

// adversarialLP mixes coefficient magnitudes across twelve orders so that
// absolute pivot magnitudes are meaningless: a healthy pivot in one row is
// smaller than roundoff noise in another. The dual re-solve churn below is
// the regression net for the tiny-pivot guard under realistic drift.
func adversarialLP() *Problem {
	p := &Problem{}
	x0 := p.AddVar(0, 1e6, -1e-6)
	x1 := p.AddVar(0, 1, -1)
	x2 := p.AddVar(0, 1e-3, -1e3)
	x3 := p.AddVar(0, 10, -0.5)
	p.AddRow([]int{x0, x1, x2, x3}, []float64{1e-6, 1, 1e3, 0.1}, LE, 2)
	p.AddRow([]int{x0, x1}, []float64{1e-5, 2}, LE, 3)
	p.AddRow([]int{x2, x3}, []float64{1e4, 1}, GE, 0.5)
	return p
}

// TestDualReSolveAdversarialScaling warm re-solves the badly scaled LP
// through a churn of bound fixes and relaxations, checking every warm
// objective against a cold solve of an identically bounded fresh problem.
func TestDualReSolveAdversarialScaling(t *testing.T) {
	for _, pricing := range []Pricing{PricingDevex, PricingDantzig} {
		s, err := NewSolver(adversarialLP(), Options{Pricing: pricing})
		if err != nil {
			t.Fatal(err)
		}
		if res := s.Solve(); res.Status != StatusOptimal {
			t.Fatalf("%v: initial solve %v", pricing, res.Status)
		}
		steps := []struct {
			j      int
			lb, ub float64
		}{
			{1, 0, 0},   // fix x1 = 0
			{3, 10, 10}, // fix x3 = 10
			{1, 0, 1},   // relax x1
			{3, 0, 10},  // relax x3
			{0, 0, 0},   // fix the huge-range x0
			{2, 1e-3, 1e-3},
			{0, 0, 1e6},
			{2, 0, 1e-3},
		}
		for i, st := range steps {
			s.SetBound(st.j, st.lb, st.ub)
			warm := s.ReSolveDual()
			cold := adversarialLP()
			for _, prev := range steps[:i+1] {
				cold.LB[prev.j], cold.UB[prev.j] = prev.lb, prev.ub
			}
			// Later steps overwrite earlier ones for the same variable, which
			// the loop above already applies in order.
			cs, err := NewSolver(cold, Options{Pricing: pricing})
			if err != nil {
				t.Fatal(err)
			}
			want := cs.Solve()
			if warm.Status != want.Status {
				t.Fatalf("%v step %d: warm status %v, cold %v", pricing, i, warm.Status, want.Status)
			}
			if warm.Status == StatusOptimal && !approx(warm.Obj, want.Obj, 1e-6*(1+math.Abs(want.Obj))) {
				t.Errorf("%v step %d: warm obj %v, cold %v", pricing, i, warm.Obj, want.Obj)
			}
		}
	}
}
