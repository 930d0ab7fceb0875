package mip

import (
	"math/rand"
	"testing"

	"fragalloc/internal/simplex"
)

// knapsack30 is TestNodeLimit's 30-item knapsack: its relaxation is
// fractional and a full search takes a few hundred nodes.
func knapsack30() (*simplex.Problem, []int) {
	rng := rand.New(rand.NewSource(5))
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

// TestStopReasons gets each reason a search can end for from a small
// instance, with the status it ends in. TestSkippedSubtreeNotOptimal covers
// a search that ends feasible after a skipped subtree.
func TestStopReasons(t *testing.T) {
	empty := [][]float64{make([]float64, 30)} // a feasible start: take nothing
	polls := 0
	for _, tc := range []struct {
		name   string
		opt    Options
		status Status
		stop   Stop
	}{
		{"the gap closes", Options{}, StatusOptimal, StopGap},
		{"the budget runs out", Options{MaxNodes: 3, Starts: empty}, StatusFeasible, StopNodes},
		{"the budget runs out first", Options{MaxNodes: 3}, StatusNoSolution, StopNodes},
		{"no improvement", Options{MaxStallNodes: 2}, StatusFeasible, StopStall},
		{"canceled", Options{Starts: empty, Canceled: func() bool { polls++; return polls > 100 }}, StatusFeasible, StopCanceled},
		{"canceled at the root", Options{Canceled: func() bool { return true }}, StatusNoSolution, StopCanceled},
	} {
		p, idx := knapsack30()
		res, err := Solve(p, idx, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Status != tc.status || res.Stop != tc.stop {
			t.Errorf("%s: %v, stop %v after %d nodes; want %v, stop %v", tc.name, res.Status, res.Stop, res.Nodes, tc.status, tc.stop)
		}
	}

	// TestKnapsack's instance: every subtree is explored or pruned before an
	// incumbent matches the best open bound.
	p := &simplex.Problem{}
	var idx []int
	for _, v := range []float64{10, 13, 7, 11} {
		idx = append(idx, p.AddVar(0, 1, -v))
	}
	p.AddRow(idx, []float64{3, 4, 2, 3}, simplex.LE, 7)
	if res, err := Solve(p, idx, Options{}); err != nil || res.Status != StatusOptimal || res.Stop != StopDrained {
		t.Errorf("drained: %v, stop %v (%v); want optimal, stop drained", res.Status, res.Stop, err)
	}

	// A root relaxation that fails is an error, and no search ended.
	p, idx = knapsack30()
	if res, err := Solve(p, idx, Options{LP: simplex.Options{MaxIters: 1}}); err == nil || res.Stop != StopNone {
		t.Errorf("root failure: stop %v (%v); want stop none and an error", res.Stop, err)
	}
}
