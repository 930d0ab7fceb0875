package mip

import (
	"math/rand"
	"testing"

	"fragalloc/internal/faultinject"
	"fragalloc/internal/simplex"
)

// cancelKnapsack builds a 30-item random knapsack whose branch and bound
// explores enough nodes to observe mid-search cancellation.
func cancelKnapsack(seed int64) (*simplex.Problem, []int) {
	rng := rand.New(rand.NewSource(seed))
	p := &simplex.Problem{}
	var idx []int
	var wts []float64
	for j := 0; j < 30; j++ {
		idx = append(idx, p.AddVar(0, 1, -(1+rng.Float64())))
		wts = append(wts, 1+rng.Float64())
	}
	p.AddRow(idx, wts, simplex.LE, 7.5)
	return p, idx
}

// TestCanceledImmediately: a hook that fires before the root relaxation
// must yield a clean no-solution result, never an error.
func TestCanceledImmediately(t *testing.T) {
	p, idx := cancelKnapsack(5)
	res, err := Solve(p, idx, Options{Canceled: func() bool { return true }})
	if err != nil {
		t.Fatalf("canceled solve returned error: %v", err)
	}
	if res.Status != StatusNoSolution {
		t.Errorf("status = %v, want no-solution when canceled before the root", res.Status)
	}
}

// TestCanceledMidSearch cancels after a fixed number of LP-iteration polls:
// the search must stop with either its best incumbent (plus a valid bound)
// or a clean no-solution, for every cancellation point.
func TestCanceledMidSearch(t *testing.T) {
	for _, after := range []int{1, 10, 100, 1000, 5000} {
		p, idx := cancelKnapsack(5)
		in := faultinject.New(faultinject.Plan{CancelAfter: after})
		res, err := Solve(p, idx, Options{Canceled: in.Canceled})
		if err != nil {
			t.Fatalf("CancelAfter=%d: error %v", after, err)
		}
		switch res.Status {
		case StatusFeasible, StatusOptimal:
			if res.Bound > res.Obj+1e-9 {
				t.Errorf("CancelAfter=%d: bound %g exceeds incumbent %g", after, res.Bound, res.Obj)
			}
			if res.X == nil {
				t.Errorf("CancelAfter=%d: incumbent status without a solution vector", after)
			}
		case StatusNoSolution:
		default:
			t.Errorf("CancelAfter=%d: status = %v", after, res.Status)
		}
	}
}

// TestCanceledInsideLongLP: regression for stop checks living only at node
// boundaries. The root LP here runs many simplex iterations; a hook that
// turns true a few polls in must stop that first LP solve within a bounded
// number of pivots rather than only after the root completes.
func TestCanceledInsideLongLP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := &simplex.Problem{}
	n, m := 150, 120
	var idx []int
	for j := 0; j < n; j++ {
		idx = append(idx, p.AddVar(0, 1, -rng.Float64()))
	}
	for r := 0; r < m; r++ {
		coef := make([]float64, n)
		for j := range coef {
			coef[j] = rng.Float64()
		}
		p.AddRow(idx, coef, simplex.LE, float64(n)/8)
	}
	const after = 8
	full, err := Solve(p, idx, Options{MaxNodes: 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if full.LPIters <= 4*after {
		t.Fatalf("the root LP takes %d pivots; too short to test a stop inside it", full.LPIters)
	}
	in := faultinject.New(faultinject.Plan{CancelAfter: after})
	res, err := Solve(p, idx, Options{Canceled: in.Canceled})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != StatusNoSolution {
		t.Errorf("status = %v, want no-solution when canceled inside the root LP", res.Status)
	}
	// The stop hook polls Canceled once per pivot, so the LP stops at the
	// after-th poll: a handful of pivots, against the full root's count.
	if res.LPIters > after {
		t.Errorf("canceled at poll %d, the root LP still ran %d pivots (uncanceled: %d)", after, res.LPIters, full.LPIters)
	}
}

// TestCancellationPreservesIncumbent first lets the search find an
// incumbent, then cancels; the result must carry that incumbent.
func TestCancellationPreservesIncumbent(t *testing.T) {
	p, idx := cancelKnapsack(5)
	// Solve once untouched to learn the optimum.
	full, err := Solve(p, idx, Options{})
	if err != nil || full.Status != StatusOptimal {
		t.Fatalf("reference solve: %v / %v", err, full.Status)
	}
	// Large CancelAfter: the root and several nodes complete first.
	in := faultinject.New(faultinject.Plan{CancelAfter: 20000})
	res, err := Solve(p, idx, Options{Canceled: in.Canceled})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status == StatusFeasible || res.Status == StatusOptimal {
		if res.Obj < full.Obj-1e-6 {
			t.Errorf("canceled incumbent %g better than the true optimum %g — invalid", res.Obj, full.Obj)
		}
		if res.Bound > res.Obj+1e-9 {
			t.Errorf("bound %g exceeds incumbent %g", res.Bound, res.Obj)
		}
	}
}

// TestOneStopHookPoll: a search polls Canceled through one stop hook, which
// Solve installs as its LPs' hook in place of the caller's LP.Canceled. A
// counting hook set at both levels is therefore polled exactly as often as
// the same hook set as Canceled alone — once per stop check, never twice.
func TestOneStopHookPoll(t *testing.T) {
	p, idx := goldenInstance(7)
	count := func(both bool) (int, *Result) {
		polls := 0
		hook := func() bool { polls++; return false }
		opt := Options{MaxNodes: 50, Canceled: hook}
		if both {
			opt.LP.Canceled = hook
		}
		res, err := Solve(p, idx, opt)
		if err != nil {
			t.Fatal(err)
		}
		return polls, res
	}
	alone, resAlone := count(false)
	both, resBoth := count(true)
	if both != alone {
		t.Errorf("hook set as Canceled and LP.Canceled polled %d times, as Canceled alone %d", both, alone)
	}
	if alone == 0 {
		t.Error("Canceled never polled")
	}
	if resAlone.Nodes != resBoth.Nodes || resAlone.LPIters != resBoth.LPIters || resAlone.Obj != resBoth.Obj {
		t.Errorf("the two searches differ: %+v vs %+v", resAlone, resBoth)
	}
	t.Logf("%d polls for %d LP pivots over %d nodes", alone, resAlone.LPIters, resAlone.Nodes)
}
