package simplex

import (
	"math"
	"testing"
)

// stubFault is a deterministic test injector: it fails the first
// failRefactors refactorization calls and forces a stall on the first
// stallAttempts loop entries.
type stubFault struct {
	refactorCalls int
	failRefactors int
	stallCalls    int
	stallFirst    int
	every         int // the refactorization cadence asked for; 0 keeps the default
}

func (f *stubFault) FailRefactor() bool {
	f.refactorCalls++
	return f.refactorCalls <= f.failRefactors
}

func (f *stubFault) ForceStall() bool {
	f.stallCalls++
	return f.stallCalls <= f.stallFirst
}

func (f *stubFault) RefactorEvery() int { return f.every }

// TestFaultRefactorCadence: a solver takes its refactorization cadence
// from its fault injector unless its options set one, and runs at
// defaultRefactorEvery without either.
func TestFaultRefactorCadence(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  Options
		want int
	}{
		{"default", Options{}, defaultRefactorEvery},
		{"injector-default", Options{Fault: &stubFault{}}, defaultRefactorEvery},
		{"injector", Options{Fault: &stubFault{every: 1}}, 1},
		{"options-win", Options{Fault: &stubFault{every: 1}, refactorEvery: 2}, 2},
	} {
		s, err := NewSolver(recoveryLP(), c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if s.opt.refactorEvery != c.want || cap(s.undo) != c.want {
			t.Errorf("%s: refactorEvery %d, undo log room %d; want %d", c.name, s.opt.refactorEvery, cap(s.undo), c.want)
		}
	}
}

// recoveryLP is a small LP with a known optimum that performs several
// pivots, so refactorEvery=1 guarantees refactorization calls.
// max x+y s.t. x+2y<=4, 3x+y<=6 => opt (1.6,1.2), obj -2.8 (minimized).
func recoveryLP() *Problem {
	p := &Problem{}
	x := p.AddVar(0, math.Inf(1), -1)
	y := p.AddVar(0, math.Inf(1), -1)
	p.AddRow([]int{x, y}, []float64{1, 2}, LE, 4)
	p.AddRow([]int{x, y}, []float64{3, 1}, LE, 6)
	return p
}

func TestRecoveryBlandRung(t *testing.T) {
	fault := &stubFault{failRefactors: 1}
	s, err := NewSolver(recoveryLP(), Options{refactorEvery: 1, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal after recovery", res.Status)
	}
	if !approx(res.Obj, -2.8, 1e-6) {
		t.Errorf("obj = %g, want -2.8", res.Obj)
	}
	if res.Recovery == nil {
		t.Fatal("Recovery = nil, want a recovery record")
	}
	if res.Recovery.Restarts != 1 || len(res.Recovery.Rungs) != 1 || res.Recovery.Rungs[0] != RungBland {
		t.Errorf("Recovery = %+v, want 1 restart on the bland rung", res.Recovery)
	}
	if fault.refactorCalls < 2 {
		t.Errorf("refactor calls = %d, want at least 2 (the injected failure plus the recovery attempt)", fault.refactorCalls)
	}
}

func TestRecoveryPerturbRung(t *testing.T) {
	// An attempt aborts at its first failing refactorization, so failing
	// the first two calls kills the initial attempt and the bland restart;
	// only the perturbed-tolerance rung gets a working factorization.
	fault := &stubFault{failRefactors: 2}
	s, err := NewSolver(recoveryLP(), Options{refactorEvery: 1, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal after perturbed restart", res.Status)
	}
	if !approx(res.Obj, -2.8, 1e-4) {
		t.Errorf("obj = %g, want -2.8", res.Obj)
	}
	if res.Recovery == nil || res.Recovery.Restarts != 2 {
		t.Fatalf("Recovery = %+v, want 2 restarts", res.Recovery)
	}
	want := []string{RungBland, RungPerturb}
	for i, rung := range want {
		if res.Recovery.Rungs[i] != rung {
			t.Errorf("Rungs[%d] = %q, want %q", i, res.Recovery.Rungs[i], rung)
		}
	}
}

func TestRecoveryExhausted(t *testing.T) {
	fault := &stubFault{failRefactors: 1 << 30}
	s, err := NewSolver(recoveryLP(), Options{refactorEvery: 1, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusUnknown {
		t.Fatalf("status = %v, want unknown when every rung fails", res.Status)
	}
	if res.Recovery == nil || res.Recovery.Restarts != 2 {
		t.Errorf("Recovery = %+v, want both rungs recorded", res.Recovery)
	}
}

func TestRecoveryStallRestart(t *testing.T) {
	// An injected stall (numerical failure without a refactor error) also
	// enters the ladder.
	fault := &stubFault{stallFirst: 1}
	s, err := NewSolver(recoveryLP(), Options{Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal after stall recovery", res.Status)
	}
	if res.Recovery == nil || res.Recovery.Restarts != 1 {
		t.Errorf("Recovery = %+v, want 1 restart", res.Recovery)
	}
}

func TestNoFaultNoRecoveryRecord(t *testing.T) {
	s, err := NewSolver(recoveryLP(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Recovery != nil {
		t.Errorf("Recovery = %+v on a clean solve, want nil", res.Recovery)
	}
}

func TestSolveCanceled(t *testing.T) {
	s, err := NewSolver(recoveryLP(), Options{Canceled: func() bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusCanceled {
		t.Fatalf("status = %v, want canceled", res.Status)
	}
	if res.Recovery != nil {
		t.Errorf("cancellation must not enter the recovery ladder, got %+v", res.Recovery)
	}
}

func TestReSolveDualCanceled(t *testing.T) {
	canceled := false
	s, err := NewSolver(recoveryLP(), Options{Canceled: func() bool { return canceled }})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal {
		t.Fatalf("initial solve: %v", res.Status)
	}
	canceled = true
	s.SetBound(0, 0, 0.5)
	res := s.ReSolveDual()
	if res.Status != StatusCanceled {
		t.Fatalf("ReSolveDual status = %v, want canceled", res.Status)
	}
}

// TestReSolveDualAllocs pins what a warm re-solve that climbs no rung
// allocates: its Result and the Result's X, nothing else. The dual pass's
// undo log lives in a buffer NewSolver preallocates, so keeping it costs
// the clean path nothing.
func TestReSolveDualAllocs(t *testing.T) {
	s, err := NewSolver(benchLP(60, 60, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal {
		t.Fatalf("initial solve: %v", res.Status)
	}
	// Fix the basic structurals sitting strictly inside their bounds at
	// their lower bound, one per run, so every re-solve pivots.
	var js []int
	for r, j := range s.basic {
		if j < s.n && s.xB[r] > s.lb[j]+1e-3 {
			js = append(js, j)
		}
	}
	if len(js) == 0 {
		t.Fatal("no basic structural strictly inside its bounds")
	}
	run, iters, bad := 0, 0, 0
	allocs := testing.AllocsPerRun(20, func() {
		j := js[run%len(js)]
		run++
		lb, ub := s.Bounds(j)
		s.SetBound(j, lb, lb)
		fixed := s.ReSolveDual()
		s.SetBound(j, lb, ub)
		relaxed := s.ReSolveDual()
		iters += fixed.Iters
		if fixed.Status != StatusOptimal || relaxed.Status != StatusOptimal || fixed.Recovery != nil || relaxed.Recovery != nil {
			bad++
		}
	})
	if bad > 0 || iters == 0 {
		t.Fatalf("%d of %d runs left the clean path, %d dual pivots in all; want none and some", bad, run, iters)
	}
	if allocs != 4 {
		t.Errorf("%v allocations per fix+relax pair of re-solves, want 4 (two Results and their X)", allocs)
	}
}
