package eval

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fragalloc/internal/model"
)

// TestEvaluatorClasses pins how the flow network groups queries: one class
// per distinct runnable node set, numbered in the order the set's first
// query appears, the same on every build.
func TestEvaluatorClasses(t *testing.T) {
	w := &model.Workload{
		Fragments: []model.Fragment{{ID: 0, Size: 1}, {ID: 1, Size: 1}, {ID: 2, Size: 1}},
		Queries: []model.Query{
			{ID: 0, Fragments: []int{0}, Cost: 1},
			{ID: 1, Fragments: []int{1}, Cost: 1},
			{ID: 2, Fragments: []int{0}, Cost: 2},
			{ID: 3, Fragments: []int{2}, Cost: 1}, // fragment 2 is stored nowhere
			{ID: 4, Fragments: []int{0, 1}, Cost: 1},
			{ID: 5, Fragments: []int{1}, Cost: 3},
		},
	}
	alloc := model.NewAllocation(3)
	alloc.AddFragment(0, 0)
	alloc.AddFragment(0, 1)
	alloc.AddFragment(1, 0)
	alloc.AddFragment(2, 1)
	wantClass := []int{0, 1, 0, 2, 3, 1}
	wantNodes := [][]int{{0, 1}, {0, 2}, nil, {0}}
	for build := 0; build < 2; build++ {
		e := NewEvaluator(w, alloc, 0)
		if !reflect.DeepEqual(e.class, wantClass) || !reflect.DeepEqual(e.classNodes, wantNodes) {
			t.Fatalf("build %d: classes %v over %v, want %v over %v", build, e.class, e.classNodes, wantClass, wantNodes)
		}
	}
	// Queries 0 and 2 share node set {0, 1}; with query 3 idle the scenario
	// is servable, and its floor comes from the class, not from one query.
	l, err := NewEvaluator(w, alloc, 0).WorstLoad([]float64{1, 0, 1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-0.5) > 1e-9 {
		t.Errorf("L̃ = %.12f, want 0.5 (class {0, 1} carries everything)", l)
	}
}

// TestEvaluatorQueryOrderInvariant: classes are a property of the allocation,
// not of the order the workload lists its queries in. Permuting the queries,
// and each frequency vector with them, leaves L̃ unchanged within 1e-9.
func TestEvaluatorQueryOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 30; trial++ {
		w := randomWorkload(rng, 4+rng.Intn(12), 3+rng.Intn(20))
		alloc := randomAllocation(rng, w, 2+rng.Intn(4))
		ss := randomScenarioSet(rng, w, 5, 0.7)
		perm := rng.Perm(len(w.Queries))
		pw := &model.Workload{Name: w.Name, Fragments: w.Fragments, Queries: make([]model.Query, len(w.Queries))}
		for to, from := range perm {
			pw.Queries[to] = w.Queries[from]
			pw.Queries[to].ID = to
		}
		e, pe := NewEvaluator(w, alloc, 1e-9), NewEvaluator(pw, alloc, 1e-9)
		for s, freq := range ss.Frequencies {
			pfreq := make([]float64, len(freq))
			for to, from := range perm {
				pfreq[to] = freq[from]
			}
			want, err := e.WorstLoad(freq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pe.WorstLoad(pfreq)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(want, 1) != math.IsInf(got, 1) || (!math.IsInf(want, 1) && math.Abs(got-want) > 1e-9) {
				t.Fatalf("trial %d scenario %d: L̃ %.12f in workload order, %.12f permuted", trial, s, want, got)
			}
		}
	}
}
