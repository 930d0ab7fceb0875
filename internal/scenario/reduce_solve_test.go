package scenario_test

import (
	"math"
	"math/rand"
	"testing"

	"fragalloc/internal/core"
	"fragalloc/internal/eval"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

// solveBudget keeps the exact solves snappy: the instances below are small
// enough that the node budget never binds (at most 308 nodes a split);
// each search ends optimal or on the stall rule.
func solveBudget() core.Options {
	return core.Options{MIP: mip.Options{MaxNodes: 1000, RelGap: 1e-6, MaxStallNodes: 150}}
}

func solveWorkload(rng *rand.Rand, n, q int) *model.Workload {
	w := &model.Workload{Name: "reduce-solve"}
	for i := 0; i < n; i++ {
		w.Fragments = append(w.Fragments, model.Fragment{ID: i, Size: 1 + rng.Float64()*4})
	}
	for j := 0; j < q; j++ {
		nf := 1 + rng.Intn(2)
		seen := map[int]bool{}
		var fr []int
		for len(fr) < nf {
			i := rng.Intn(n)
			if !seen[i] {
				seen[i] = true
				fr = append(fr, i)
			}
		}
		w.Queries = append(w.Queries, model.Query{ID: j, Fragments: fr, Cost: 0.5 + rng.Float64()*3, Frequency: 1})
	}
	w.NormalizeQueryFragments()
	return w
}

// TestReducedSolveCoversFullSet is the cross-check of the clustered
// reduction against the full solve: allocate over R weighted
// representatives, then verify on the FULL scenario set that (a) every
// member scenario is servable, (b) each member's worst-case load share
// stays within its cluster's deviation bound of its representative's, and
// (c) the full-set objective E(L̃) − 1/K lands within the maximum deviation
// bound of the full-S solve's.
func TestReducedSolveCoversFullSet(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	w := solveWorkload(rng, 6, 9)
	const k = 3
	ss := scenario.InSample(w, 12, scenario.DefaultP, 61)
	red, err := scenario.Reduce(w, ss, scenario.ReduceConfig{R: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	redRes, err := core.Allocate(w, red.Reduced, k, solveBudget())
	if err != nil {
		t.Fatalf("reduced solve: %v", err)
	}
	fullRes, err := core.Allocate(w, ss, k, solveBudget())
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}

	// (a)+(b): per-member coverage and deviation, via the evaluator.
	ev := eval.NewEvaluator(w, redRes.Allocation, 1e-9)
	for c := range red.Medoids {
		repL, err := ev.WorstLoad(red.Reduced.Frequencies[c])
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(repL, 1) {
			t.Fatalf("cluster %d representative unservable under its own solve", c)
		}
		for _, s := range red.Members[c] {
			memL, err := ev.WorstLoad(ss.Frequencies[s])
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(memL, 1) {
				t.Fatalf("member scenario %d unservable despite coverage augmentation", s)
			}
			if memL > repL+red.Radius[c]+1e-6 {
				t.Fatalf("cluster %d member %d: L̃ %.9f exceeds representative %.9f + radius %.9f",
					c, s, memL, repL, red.Radius[c])
			}
		}
	}

	// (c): full-set objective of the reduced solve within the deviation
	// bound of the full solve's. The full solve's allocation serves all
	// scenarios, so both evaluations are finite.
	mRed, err := eval.Evaluate(w, redRes.Allocation, ss)
	if err != nil {
		t.Fatal(err)
	}
	mFull, err := eval.Evaluate(w, fullRes.Allocation, ss)
	if err != nil {
		t.Fatal(err)
	}
	if mRed.Unservable != 0 {
		t.Fatalf("reduced solve leaves %d of %d scenarios unservable", mRed.Unservable, ss.S())
	}
	if mRed.MeanGap > mFull.MeanGap+red.MaxRadius()+1e-6 {
		t.Fatalf("reduced-solve gap %.9f exceeds full-solve gap %.9f + max radius %.9f",
			mRed.MeanGap, mFull.MeanGap, red.MaxRadius())
	}
}

// TestReducedSolveIdentityMatchesFull: with R ≥ S the reduction is the
// identity (unit weights, untouched vectors), so the solve must behave
// exactly like the full one.
func TestReducedSolveIdentityMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	w := solveWorkload(rng, 5, 7)
	const k = 3
	ss := scenario.InSample(w, 3, scenario.DefaultP, 67)
	red, err := scenario.Reduce(w, ss, scenario.ReduceConfig{R: 99, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	redRes, err := core.Allocate(w, red.Reduced, k, solveBudget())
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := core.Allocate(w, ss, k, solveBudget())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(redRes.W-fullRes.W) > 1e-9 {
		t.Fatalf("identity reduction changed allocated data: %.9f vs %.9f", redRes.W, fullRes.W)
	}
}
