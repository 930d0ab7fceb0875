package service

import (
	"context"
	"testing"
	"time"

	"fragalloc/internal/eval"
	"fragalloc/internal/mip"
	"fragalloc/internal/scenario"
)

// reducedConfig is the shared fixture for the reduction lifecycle tests: a
// 12-scenario in-sample set clustered down to 4 representatives, with the
// default re-cluster threshold (0.25 × 12 → dirty after the 4th fold). The
// multi-scenario solves get a stall rule and a node budget — stopped solves
// adopt as "feasible", and these tests assert reduction mechanics, not
// optimality — so the suite stays fast under -race. The stall rule ends
// every search first (at most 225 nodes a split).
func reducedConfig(t testing.TB) Config {
	cfg := serviceConfig(t)
	cfg.Scenarios = scenario.InSample(cfg.Workload, 12, 0.6, 3)
	cfg.ReduceTo = 4
	cfg.MIP = mip.Options{MaxNodes: 500, RelGap: 1e-6, MaxStallNodes: 100}
	return cfg
}

// TestServiceReduceSolvesOverRepresentatives checks the reduction's core
// contract end to end: the daemon clusters at boot, solves over the 4
// weighted representatives, and the adopted incumbent still serves every one
// of the 12 member scenarios (the ε coverage augmentation at work).
func TestServiceReduceSolvesOverRepresentatives(t *testing.T) {
	cfg := reducedConfig(t)
	full := cfg.Scenarios.Clone()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.ReducedScenarios != 4 || st.Scenarios != 12 {
		t.Fatalf("pre-bootstrap status: reduced=%d scenarios=%d, want 4/12", st.ReducedScenarios, st.Scenarios)
	}
	if st.Reclusterings != 0 {
		t.Fatalf("the boot-time build must not count as a re-clustering, got %d", st.Reclusterings)
	}
	if st.MaxDeviationBound <= 0 {
		t.Fatalf("12 scenarios in 4 clusters must leave a positive deviation bound, got %g", st.MaxDeviationBound)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	inc, _ := s.Incumbent()
	if inc == nil {
		t.Fatal("no incumbent after bootstrap")
	}
	if err := inc.Allocation.Validate(cfg.Workload); err != nil {
		t.Fatalf("incumbent invalid: %v", err)
	}
	m, err := eval.EvaluateStream(cfg.Workload, inc.Allocation, full, eval.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Unservable != 0 {
		t.Fatalf("a reduced solve left %d of %d member scenarios unservable", m.Unservable, full.S())
	}
}

// TestServiceReduceFoldAndRecluster walks the drift ladder: observations
// below the threshold fold into the nearest cluster (weight and drift move,
// the clustering stays), and the fold that trips the threshold makes the
// next re-optimization rebuild from scratch, resetting the drift total.
func TestServiceReduceFoldAndRecluster(t *testing.T) {
	cfg := reducedConfig(t)
	q := len(cfg.Workload.Queries)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	go s.Run(ctx)

	// A re-observation of an existing scenario is a zero-deviation fold:
	// no re-clustering, no bound widening, drift 1 of the 3 allowed.
	echo := append([]float64(nil), cfg.Scenarios.Frequencies[0]...)
	bound := s.Status().MaxDeviationBound
	epoch, err := s.Apply(Update{Observe: [][]float64{echo}})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s.WaitEpoch(ctx, epoch); err != nil || !ok {
		t.Fatalf("fold epoch %d not adopted (ok=%v err=%v)", epoch, ok, err)
	}
	st := s.Status()
	if st.Reclusterings != 0 || st.ReducedScenarios != 4 {
		t.Fatalf("one fold must not re-cluster: reclusterings=%d reduced=%d", st.Reclusterings, st.ReducedScenarios)
	}
	if st.DriftSinceRecluster != 1 || st.Scenarios != 13 {
		t.Fatalf("after one fold: drift=%g scenarios=%d, want 1/13", st.DriftSinceRecluster, st.Scenarios)
	}
	if st.MaxDeviationBound > bound+1e-12 {
		t.Fatalf("re-observing a member widened the bound: %g > %g", st.MaxDeviationBound, bound)
	}

	// Three genuinely new scenarios push the drift total to 4 > 0.25 × 12,
	// so the attempt that covers the last of them re-clusters over all 16.
	for i := 0; i < 3; i++ {
		novel := make([]float64, q)
		for j := range novel {
			novel[j] = float64((i*7 + j*3) % 5)
		}
		if epoch, err = s.Apply(Update{Observe: [][]float64{novel}}); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := s.WaitEpoch(ctx, epoch); err != nil || !ok {
		t.Fatalf("drift epoch %d not adopted (ok=%v err=%v)", epoch, ok, err)
	}
	st = s.Status()
	if st.Reclusterings != 1 {
		t.Fatalf("threshold trip must re-cluster exactly once, got %d", st.Reclusterings)
	}
	if st.DriftSinceRecluster != 0 {
		t.Fatalf("re-clustering must reset the drift total, got %g", st.DriftSinceRecluster)
	}
	if st.ReducedScenarios != 4 || st.Scenarios != 16 {
		t.Fatalf("after re-clustering: reduced=%d scenarios=%d, want 4/16", st.ReducedScenarios, st.Scenarios)
	}
}

// TestServiceReduceFreqDeltaDrift checks the other drift source: a frequency
// delta to a member scenario counts toward the threshold and re-registers
// the moved vector against its nearest cluster, widening the bound if the
// scenario drifted outside its cluster radius.
func TestServiceReduceFreqDeltaDrift(t *testing.T) {
	cfg := reducedConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	go s.Run(ctx)

	// Two deltas to the same scenario are one drifted vector, not two.
	epoch, err := s.Apply(Update{FreqDeltas: []FreqDelta{
		{Scenario: 2, Query: 1, Delta: 5},
		{Scenario: 2, Query: 4, Delta: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s.WaitEpoch(ctx, epoch); err != nil || !ok {
		t.Fatalf("delta epoch %d not adopted (ok=%v err=%v)", epoch, ok, err)
	}
	st := s.Status()
	if st.DriftSinceRecluster != 1 {
		t.Fatalf("deltas to one scenario must count one drift unit, got %g", st.DriftSinceRecluster)
	}
	if st.Reclusterings != 0 || st.Scenarios != 12 {
		t.Fatalf("a single delta must not re-cluster or grow the set: reclusterings=%d scenarios=%d",
			st.Reclusterings, st.Scenarios)
	}
}
