package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fragalloc/internal/faultinject"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/simplex"
)

// faultedMIP returns MIP options under which no LP in the pipeline can ever
// refactorize: with RefactorEvery=1 every solve hits its first
// refactorization within two pivots and the injector fails them all, so
// every subproblem must take the greedy degradation path.
func faultedMIP() mip.Options {
	return mip.Options{
		MaxNodes: 3000,
		LP:       simplex.Options{RefactorEvery: 1, Fault: faultinject.Always()},
	}
}

// checkFeasible validates the allocation and the routing invariants that
// hold regardless of solver outcome: shares conserve to 1 per active query
// and realized loads stay within the reported MaxLoad.
func checkFeasible(t *testing.T, w *model.Workload, ss *model.ScenarioSet, res *Result) {
	t.Helper()
	if err := res.Allocation.Validate(w); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	if ss == nil {
		ss = model.DefaultScenario(w)
	}
	limit := math.Max(res.MaxLoad, 1) / float64(res.Allocation.K)
	for s, freq := range ss.Frequencies {
		loads := res.Allocation.NodeLoads(w, freq, s)
		var total float64
		for k, l := range loads {
			total += l
			if l > limit+1e-5 {
				t.Errorf("scenario %d node %d load %.6f exceeds MaxLoad/K=%.6f", s, k, l, limit)
			}
		}
		if math.Abs(total-1) > 1e-5 {
			t.Errorf("scenario %d total load %.6f, want 1", s, total)
		}
		for j := range w.Queries {
			if freq[j] <= 0 || w.Queries[j].Cost <= 0 {
				continue
			}
			var sum float64
			for k := 0; k < res.Allocation.K; k++ {
				sum += res.Allocation.Shares[s][j][k]
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Errorf("scenario %d query %d shares sum %.6f, want 1", s, j, sum)
			}
		}
	}
}

// TestDegradedPipelineStillFeasible is the acceptance test of the failure
// policy: with refactorization failures injected into every subproblem the
// decomposition must still return a complete feasible allocation, tag every
// subproblem Degraded, and report the replication-factor delta.
func TestDegradedPipelineStillFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := randomWorkload(rng, 24, 20)
	spec, _ := ParseChunks("2+2")
	res, err := Allocate(w, nil, 4, Options{Chunks: spec, MIP: faultedMIP()})
	if err != nil {
		t.Fatalf("faulted Allocate must degrade, not fail: %v", err)
	}
	checkFeasible(t, w, nil, res)
	if res.Outcomes.Degraded == 0 {
		t.Fatalf("Outcomes = %v, want degraded subproblems under total refactor failure", res.Outcomes)
	}
	if res.Outcomes.Optimal != 0 || res.Outcomes.Feasible != 0 {
		t.Errorf("Outcomes = %v: no subproblem can solve when every refactorization fails", res.Outcomes)
	}
	if res.Exact {
		t.Error("degraded run reported Exact")
	}
	if res.DegradedDelta < 0 {
		t.Errorf("DegradedDelta = %g, want >= 0", res.DegradedDelta)
	}
	if res.Canceled {
		t.Error("Canceled = true without a cancellation hook")
	}
}

// TestDegradedRunCountsItsWork degrades without a fault injector: with one
// pivot allowed per LP, every subproblem of the 2+2 crash workload fails its
// attempt and its retry and falls back to the greedy allocator. The pivots
// those failed attempts took are work the run did, and Result.LPIters counts
// them.
func TestDegradedRunCountsItsWork(t *testing.T) {
	w, spec := crashWorkload()
	res, err := Allocate(w, nil, 4, Options{Chunks: spec, Parallelism: 1, MIP: mip.Options{LP: simplex.Options{MaxIters: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, w, nil, res)
	if res.Outcomes.Degraded != 3 {
		t.Fatalf("Outcomes = %v, want all 3 subproblems degraded under a 1-pivot limit", res.Outcomes)
	}
	if res.LPIters == 0 {
		t.Fatalf("LPIters = 0 after 3 subproblems each failed two attempts (%v)", res.Starts)
	}
}

// TestDegradedMultiScenario: degradation must also hold for the robust
// multi-scenario model, including the partial-clustering fixed queries.
func TestDegradedMultiScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	w := randomWorkload(rng, 20, 15)
	ss := &model.ScenarioSet{}
	base := make([]float64, len(w.Queries))
	for j := range base {
		base[j] = 1
	}
	ss.Frequencies = append(ss.Frequencies, base)
	for s := 0; s < 2; s++ {
		freq := make([]float64, len(w.Queries))
		for j := range freq {
			if rng.Float64() < 0.75 {
				freq[j] = rng.Float64() * 2
			}
		}
		freq[0] = 1
		ss.Frequencies = append(ss.Frequencies, freq)
	}
	res, err := Allocate(w, ss, 3, Options{FixedQueries: 3, MIP: faultedMIP()})
	if err != nil {
		t.Fatalf("faulted multi-scenario Allocate: %v", err)
	}
	checkFeasible(t, w, ss, res)
	if res.Outcomes.Degraded == 0 {
		t.Errorf("Outcomes = %v, want degraded", res.Outcomes)
	}
	for _, j := range res.FixedQueries {
		for s := range ss.Frequencies {
			if ss.Frequencies[s][j] <= 0 {
				continue
			}
			if z := res.Allocation.Shares[s][j][0]; math.Abs(z-1) > 1e-6 {
				t.Errorf("scenario %d fixed query %d share on node 0 = %.4f, want 1", s, j, z)
			}
		}
	}
}

// TestRetryRungRecovers exercises the middle rung of the per-subproblem
// policy: a too-small LP iteration limit fails the first solve, and the
// retry with escalated limits succeeds without degradation. The iteration
// limit is scanned because the exact pivot count is solver detail; the test
// requires that some limit triggers retry-then-success.
func TestRetryRungRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := randomWorkload(rng, 24, 20)
	spec, _ := ParseChunks("2+2")
	for _, iters := range []int{40, 80, 160, 320, 640} {
		var mu sync.Mutex
		var logs []string
		opt := Options{
			Chunks: spec,
			MIP:    mip.Options{MaxNodes: 3000, LP: simplex.Options{MaxIters: iters}},
			Logf: func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				logs = append(logs, format)
			},
		}
		res, err := Allocate(w, nil, 4, opt)
		if err != nil {
			t.Fatalf("MaxIters=%d: %v", iters, err)
		}
		retried := false
		for _, l := range logs {
			if strings.Contains(l, "retrying with escalated iteration limits") {
				retried = true
			}
		}
		if retried && res.Outcomes.Degraded == 0 {
			checkFeasible(t, w, nil, res)
			return // retry rung observed recovering
		}
	}
	t.Fatal("no scanned iteration limit produced a retry-then-success; adjust the scan range")
}

// TestMIPLinesReachTheRunLog: the search's own lines — here each
// subproblem's root relaxation — reach the run's logger, where a skipped
// subtree or a refused start is reported.
func TestMIPLinesReachTheRunLog(t *testing.T) {
	w, spec := crashWorkload()
	var mu sync.Mutex
	roots := 0
	_, err := Allocate(w, nil, 4, Options{
		Chunks: spec,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			if strings.HasPrefix(format, "mip: root relaxation obj=") {
				roots++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if roots != 3 {
		t.Errorf("%d mip root-relaxation lines reached the run log, want one per 2+2 subproblem (3)", roots)
	}
}

// TestRetryRaisesTheIterationLimit pins the retry rung on a model with
// m+n = 20 000, past the 7 000 where the simplex's default limit 50 000 +
// 50·(m+n) passes 400 000: the retry runs at four times the limit the
// failed attempt ran with, the default or the caller's own, never lower.
func TestRetryRaisesTheIterationLimit(t *testing.T) {
	p := &simplex.Problem{NumVars: 18000, Rows: make([]simplex.Row, 2000)}
	if got, want := escalateIters(simplex.Options{}, p), 4*(50000+50*20000); got != want {
		t.Errorf("retry limit after the default: %d, want %d", got, want)
	}
	if got := escalateIters(simplex.Options{MaxIters: 700}, p); got != 2800 {
		t.Errorf("retry limit after MaxIters 700: %d, want 2800", got)
	}
}

// TestCanceledBeforeStart: a hook that is already true must still yield a
// complete feasible allocation — everything degrades — with Canceled set.
func TestCanceledBeforeStart(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := randomWorkload(rng, 24, 20)
	spec, _ := ParseChunks("2+2")
	res, err := Allocate(w, nil, 4, Options{
		Chunks:   spec,
		MIP:      mip.Options{MaxNodes: 3000},
		Canceled: func() bool { return true },
	})
	if err != nil {
		t.Fatalf("canceled Allocate: %v", err)
	}
	checkFeasible(t, w, nil, res)
	if !res.Canceled {
		t.Error("Canceled = false with an always-true hook")
	}
	if res.Outcomes.Degraded == 0 {
		t.Errorf("Outcomes = %v, want degraded subproblems under immediate cancellation", res.Outcomes)
	}
}

// TestParallelCancellationDrains: the worker pool must drain cleanly when
// the hook flips mid-run — no worker may hang, and the merged result stays
// feasible. Run under -race this also checks the hook and injector
// concurrency contracts.
func TestParallelCancellationDrains(t *testing.T) {
	w := tpcdsSubset(40)
	spec, _ := ParseChunks("(2+2)+(2+2)")
	var polls atomic.Int64
	res, err := Allocate(w, nil, 8, Options{
		Chunks:      spec,
		Parallelism: 4,
		MIP:         mip.Options{MaxNodes: 3000},
		Canceled:    func() bool { return polls.Add(1) > 50000 },
	})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	checkFeasible(t, w, nil, res)
	if res.Outcomes.Total() == 0 {
		t.Error("no subproblem outcomes recorded")
	}
}

// TestInfeasibleInputsStillError: degradation must never mask genuinely
// infeasible inputs; they surface as ErrInfeasible for exit-code mapping.
func TestInfeasibleInputsStillError(t *testing.T) {
	w := starWorkload(10, 1, 1)
	_, err := Allocate(w, nil, 5, Options{FixedQueries: 9, MIP: faultedMIP()})
	if err == nil {
		t.Fatal("want error when fixed queries exceed node capacity")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("error %v does not match ErrInfeasible", err)
	}
}

// TestSeededFaultsFeasible sweeps seeded random fault plans: whatever
// subset of refactorizations and stalls fails, the result is feasible and
// the outcome tally covers every subproblem.
func TestSeededFaultsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := randomWorkload(rng, 24, 20)
	spec, _ := ParseChunks("2+2")
	for seed := int64(1); seed <= 3; seed++ {
		in := faultinject.Seeded(seed, 2000, 0.25)
		res, err := Allocate(w, nil, 4, Options{
			Chunks: spec,
			MIP:    mip.Options{MaxNodes: 3000, LP: simplex.Options{RefactorEvery: 1, Fault: in}},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkFeasible(t, w, nil, res)
		if res.Outcomes.Total() == 0 {
			t.Errorf("seed %d: no outcomes recorded", seed)
		}
	}
}
