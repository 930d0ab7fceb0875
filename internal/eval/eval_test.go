package eval

import (
	"math"
	"math/rand"
	"testing"

	"fragalloc/internal/model"
)

func randomWorkload(rng *rand.Rand, n, q int) *model.Workload {
	w := &model.Workload{Name: "rand"}
	for i := 0; i < n; i++ {
		w.Fragments = append(w.Fragments, model.Fragment{ID: i, Size: 1 + rng.Float64()*9})
	}
	for j := 0; j < q; j++ {
		nf := 1 + rng.Intn(3)
		seen := map[int]bool{}
		var fr []int
		for len(fr) < nf {
			i := rng.Intn(n)
			if !seen[i] {
				seen[i] = true
				fr = append(fr, i)
			}
		}
		w.Queries = append(w.Queries, model.Query{ID: j, Fragments: fr, Cost: 0.5 + rng.Float64()*5, Frequency: 1})
	}
	w.NormalizeQueryFragments()
	return w
}

func randomAllocation(rng *rand.Rand, w *model.Workload, k int) *model.Allocation {
	alloc := model.NewAllocation(k)
	// Every query lands fully on at least one random node; some get more.
	for j := range w.Queries {
		nodes := 1 + rng.Intn(2)
		for c := 0; c < nodes; c++ {
			node := rng.Intn(k)
			for _, i := range w.Queries[j].Fragments {
				alloc.AddFragment(node, i)
			}
		}
	}
	return alloc
}

func TestFullReplicationIsPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	w := randomWorkload(rng, 12, 10)
	k := 4
	alloc := model.NewAllocation(k)
	for node := 0; node < k; node++ {
		for i := range w.Fragments {
			alloc.AddFragment(node, i)
		}
	}
	freq := w.DefaultFrequencies()
	l, err := WorstLoadLP(w, alloc, freq)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-0.25) > 1e-9 {
		t.Errorf("LP L = %.9f, want 0.25", l)
	}
	lf, err := WorstLoadFlow(w, alloc, freq, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lf-0.25) > 1e-7 {
		t.Errorf("flow L = %.9f, want 0.25", lf)
	}
}

func TestSingleNodeGetsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	w := randomWorkload(rng, 10, 8)
	k := 3
	alloc := model.NewAllocation(k)
	for i := range w.Fragments {
		alloc.AddFragment(0, i) // only node 0 can run anything
	}
	l, err := WorstLoadLP(w, alloc, w.DefaultFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-1) > 1e-9 {
		t.Errorf("L = %.9f, want 1 (all load on one node)", l)
	}
}

func TestUnservableScenario(t *testing.T) {
	w := &model.Workload{
		Fragments: []model.Fragment{{ID: 0, Size: 1}, {ID: 1, Size: 1}},
		Queries: []model.Query{
			{ID: 0, Fragments: []int{0}, Cost: 1, Frequency: 1},
			{ID: 1, Fragments: []int{1}, Cost: 1, Frequency: 1},
		},
	}
	alloc := model.NewAllocation(2)
	alloc.AddFragment(0, 0) // fragment 1 nowhere
	l, err := WorstLoadLP(w, alloc, w.DefaultFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(l, 1) {
		t.Errorf("LP L = %v, want +Inf", l)
	}
	lf, err := WorstLoadFlow(w, alloc, w.DefaultFrequencies(), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(lf, 1) {
		t.Errorf("flow L = %v, want +Inf", lf)
	}
}

func TestZeroCostScenarioRejected(t *testing.T) {
	w := &model.Workload{
		Fragments: []model.Fragment{{ID: 0, Size: 1}},
		Queries:   []model.Query{{ID: 0, Fragments: []int{0}, Cost: 1, Frequency: 1}},
	}
	alloc := model.NewAllocation(1)
	alloc.AddFragment(0, 0)
	if _, err := WorstLoadLP(w, alloc, []float64{0}); err == nil {
		t.Error("want error for zero-load scenario")
	}
}

// TestFlowMatchesLP is the central property test: the two independent
// evaluators must agree on random allocations and scenarios.
func TestFlowMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		w := randomWorkload(rng, 4+rng.Intn(15), 3+rng.Intn(15))
		k := 2 + rng.Intn(4)
		alloc := randomAllocation(rng, w, k)
		freq := make([]float64, len(w.Queries))
		for j := range freq {
			if rng.Float64() < 0.8 {
				freq[j] = rng.Float64() * 2
			}
		}
		freq[rng.Intn(len(freq))] = 1 // ensure load
		lp, err := WorstLoadLP(w, alloc, freq)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fl, err := WorstLoadFlow(w, alloc, freq, 1e-9)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsInf(lp, 1) != math.IsInf(fl, 1) {
			t.Fatalf("trial %d: LP %v vs flow %v", trial, lp, fl)
		}
		if !math.IsInf(lp, 1) && math.Abs(lp-fl) > 1e-6 {
			t.Fatalf("trial %d: LP %.9f vs flow %.9f", trial, lp, fl)
		}
	}
}

func TestEvaluateMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	w := randomWorkload(rng, 10, 8)
	k := 2
	alloc := model.NewAllocation(k)
	for node := 0; node < k; node++ {
		for i := range w.Fragments {
			alloc.AddFragment(node, i)
		}
	}
	ss := &model.ScenarioSet{}
	for s := 0; s < 5; s++ {
		freq := make([]float64, len(w.Queries))
		for j := range freq {
			freq[j] = rng.Float64()
		}
		freq[0] = 1
		ss.Frequencies = append(ss.Frequencies, freq)
	}
	m, err := Evaluate(w, alloc, ss)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.L) != 5 {
		t.Fatalf("got %d L values, want 5", len(m.L))
	}
	// Full replication: every scenario perfectly balanced.
	if math.Abs(m.MeanGap) > 1e-6 {
		t.Errorf("MeanGap = %g, want 0", m.MeanGap)
	}
	if math.Abs(m.MeanThroughput-1) > 1e-6 {
		t.Errorf("MeanThroughput = %g, want 1", m.MeanThroughput)
	}
	if m.Unservable != 0 {
		t.Errorf("Unservable = %d, want 0", m.Unservable)
	}
}
