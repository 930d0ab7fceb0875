package scenario

import (
	"math"
	"testing"

	"fragalloc/internal/model"
)

// clusteredWorkload builds a workload whose queries have varied costs so
// load-share vectors separate scenarios meaningfully.
func reduceWorkload(q int) *model.Workload {
	w := &model.Workload{}
	w.Fragments = []model.Fragment{{ID: 0, Size: 1}}
	for j := 0; j < q; j++ {
		w.Queries = append(w.Queries, model.Query{
			ID: j, Fragments: []int{0}, Cost: 1 + float64(j%5), Frequency: 1,
		})
	}
	return w
}

func TestReduceDeterministic(t *testing.T) {
	w := reduceWorkload(40)
	ss := InSample(w, 30, DefaultP, 11)
	a, err := Reduce(w, ss, ReduceConfig{R: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reduce(w, ss, ReduceConfig{R: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Medoids) != len(b.Medoids) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a.Medoids), len(b.Medoids))
	}
	for c := range a.Medoids {
		if a.Medoids[c] != b.Medoids[c] {
			t.Fatalf("medoid %d differs: %d vs %d", c, a.Medoids[c], b.Medoids[c])
		}
		//fragvet:ignore floatcmp — determinism contract: the same seed must reproduce the reduction bit-identically
		if a.Radius[c] != b.Radius[c] || a.Reduced.Weights[c] != b.Reduced.Weights[c] {
			t.Fatalf("cluster %d radius/weight differ", c)
		}
	}
	for s := range a.Assign {
		if a.Assign[s] != b.Assign[s] {
			t.Fatalf("assignment of scenario %d differs", s)
		}
	}
}

func TestReduceStructure(t *testing.T) {
	w := reduceWorkload(25)
	ss := InSample(w, 24, DefaultP, 7)
	red, err := Reduce(w, ss, ReduceConfig{R: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if red.R() != 4 {
		t.Fatalf("R = %d, want 4", red.R())
	}
	if err := red.Reduced.Validate(w); err != nil {
		t.Fatalf("reduced set invalid: %v", err)
	}
	// Weights are member counts and sum to S.
	var total float64
	for c, wt := range red.Reduced.Weights {
		if int(wt) != len(red.Members[c]) {
			t.Fatalf("cluster %d weight %g, want member count %d", c, wt, len(red.Members[c]))
		}
		total += wt
	}
	if int(total) != ss.S() {
		t.Fatalf("weights sum to %g, want %d", total, ss.S())
	}
	// Medoids ascend and every cluster contains its own medoid.
	for c, m := range red.Medoids {
		if c > 0 && red.Medoids[c-1] >= m {
			t.Fatalf("medoids not ascending: %v", red.Medoids)
		}
		if red.Assign[m] != c {
			t.Fatalf("medoid %d not assigned to its own cluster %d", m, c)
		}
	}
	// Members mirror Assign, sorted ascending.
	seen := 0
	for c, ms := range red.Members {
		for i, s := range ms {
			if i > 0 && ms[i-1] >= s {
				t.Fatalf("cluster %d members not ascending: %v", c, ms)
			}
			if red.Assign[s] != c {
				t.Fatalf("scenario %d in members of %d but assigned %d", s, c, red.Assign[s])
			}
			seen++
		}
	}
	if seen != ss.S() {
		t.Fatalf("members cover %d scenarios, want %d", seen, ss.S())
	}
}

// TestReduceRadiusIsDeviationBound verifies Radius against its definition:
// the half-L1 distance of every member's share vector to its representative.
func TestReduceRadiusIsDeviationBound(t *testing.T) {
	w := reduceWorkload(30)
	ss := InSample(w, 20, DefaultP, 5)
	red, err := Reduce(w, ss, ReduceConfig{R: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, len(w.Queries))
	for j, q := range w.Queries {
		costs[j] = q.Cost
	}
	for c, ms := range red.Members {
		var want float64
		rep := shareVector(costs, red.Reduced.Frequencies[c], nil)
		for _, s := range ms {
			d := halfL1(shareVector(costs, ss.Frequencies[s], nil), rep)
			if d > want {
				want = d
			}
		}
		if math.Abs(red.Radius[c]-want) > 1e-12 {
			t.Fatalf("cluster %d radius %g, want %g", c, red.Radius[c], want)
		}
		if red.Radius[c] > red.MaxRadius() {
			t.Fatalf("MaxRadius %g below cluster %d radius %g", red.MaxRadius(), c, red.Radius[c])
		}
	}
}

// TestReduceCoverage: every query active in any member scenario is active in
// its cluster's representative, so a solve over the representatives places
// the fragments of every original scenario's queries.
func TestReduceCoverage(t *testing.T) {
	w := reduceWorkload(50)
	ss := OutOfSample(w, 40, 0.4, 13) // sparse scenarios: plenty of zero rows
	red, err := Reduce(w, ss, ReduceConfig{R: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for c, ms := range red.Members {
		for _, s := range ms {
			for j, f := range ss.Frequencies[s] {
				if f > 0 && red.Reduced.Frequencies[c][j] <= 0 {
					t.Fatalf("cluster %d member %d activates query %d, representative does not", c, s, j)
				}
			}
		}
	}
}

func TestReduceIdentity(t *testing.T) {
	w := reduceWorkload(10)
	ss := InSample(w, 4, DefaultP, 1)
	red, err := Reduce(w, ss, ReduceConfig{R: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if red.R() != 4 {
		t.Fatalf("R = %d, want 4 (identity reduction)", red.R())
	}
	for c := range red.Medoids {
		if red.Medoids[c] != c || red.Radius[c] != 0 {
			t.Fatalf("identity reduction broken at cluster %d: medoid %d radius %g", c, red.Medoids[c], red.Radius[c])
		}
	}
}

func TestNearestAndFold(t *testing.T) {
	w := reduceWorkload(20)
	ss := InSample(w, 12, DefaultP, 4)
	red, err := Reduce(w, ss, ReduceConfig{R: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// A medoid's own frequency vector folds into its own cluster with (up
	// to the coverage ε) zero deviation.
	for c, m := range red.Medoids {
		got, dev := red.Nearest(ss.Frequencies[m])
		if got != c {
			t.Fatalf("medoid %d resolved to cluster %d, want %d", m, got, c)
		}
		if dev > 1e-6 {
			t.Fatalf("medoid %d deviates %g from its own representative", m, dev)
		}
	}
	// Folding grows the weight and never shrinks the radius.
	c, dev := red.Nearest(ss.Frequencies[red.Members[0][0]])
	beforeW, beforeR := red.Reduced.Weights[c], red.Radius[c]
	red.Fold(c, dev, 1)
	// Adding the integer 1 to a small member count is exact in float64.
	if red.Reduced.Weights[c] != beforeW+1 { //fragvet:ignore floatcmp — integer-valued weight increment is exact
		t.Fatalf("fold weight %g, want %g", red.Reduced.Weights[c], beforeW+1)
	}
	if red.Radius[c] < beforeR || red.Radius[c] < dev {
		t.Fatalf("fold radius %g below max(%g, %g)", red.Radius[c], beforeR, dev)
	}
}

func TestReduceRejectsBadConfig(t *testing.T) {
	w := reduceWorkload(5)
	ss := InSample(w, 3, DefaultP, 1)
	if _, err := Reduce(w, ss, ReduceConfig{R: 0}); err == nil {
		t.Error("want error for R=0")
	}
}
