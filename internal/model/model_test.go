package model

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func validWorkload() *Workload {
	return &Workload{
		Name: "t",
		Fragments: []Fragment{
			{ID: 0, Size: 10}, {ID: 1, Size: 20}, {ID: 2, Size: 30},
		},
		Queries: []Query{
			{ID: 0, Fragments: []int{0, 1}, Cost: 2, Frequency: 1},
			{ID: 1, Fragments: []int{2}, Cost: 3, Frequency: 2},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validWorkload().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []func(*Workload){
		func(w *Workload) { w.Fragments[1].ID = 5 },
		func(w *Workload) { w.Fragments[0].Size = -1 },
		func(w *Workload) { w.Queries[0].ID = 9 },
		func(w *Workload) { w.Queries[0].Cost = -2 },
		func(w *Workload) { w.Queries[0].Frequency = -1 },
		func(w *Workload) { w.Queries[0].Fragments = nil },
		func(w *Workload) { w.Queries[0].Fragments = []int{7} },
		func(w *Workload) { w.Queries[0].Fragments = []int{1, 0} },
		func(w *Workload) { w.Queries[0].Fragments = []int{1, 1} },
	}
	for i, mutate := range cases {
		w := validWorkload()
		mutate(w)
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestTotalCostAndShares(t *testing.T) {
	w := validWorkload()
	freq := w.DefaultFrequencies()
	if got := w.TotalCost(freq); got != 1*2+2*3 {
		t.Errorf("TotalCost = %g, want 8", got)
	}
	shares := w.QueryShares(freq)
	if math.Abs(shares[0]-0.25) > 1e-12 || math.Abs(shares[1]-0.75) > 1e-12 {
		t.Errorf("shares = %v, want [0.25 0.75]", shares)
	}
}

func TestAccessedDataSize(t *testing.T) {
	w := validWorkload()
	if got := w.AccessedDataSize(); got != 60 {
		t.Errorf("V = %g, want 60", got)
	}
	// Zero out query 1: fragment 2 no longer accessed.
	if got := w.AccessedDataSize([]float64{1, 0}); got != 30 {
		t.Errorf("V = %g, want 30", got)
	}
	// Union across two scenarios.
	if got := w.AccessedDataSize([]float64{1, 0}, []float64{0, 1}); got != 60 {
		t.Errorf("union V = %g, want 60", got)
	}
}

// TestQuerySharesSumToOne is a quick property: for arbitrary positive costs
// and frequencies, shares sum to 1.
func TestQuerySharesSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := 1 + rng.Intn(30)
		w := &Workload{Fragments: []Fragment{{ID: 0, Size: 1}}}
		freq := make([]float64, q)
		for j := 0; j < q; j++ {
			w.Queries = append(w.Queries, Query{ID: j, Fragments: []int{0}, Cost: rng.Float64() + 0.01})
			freq[j] = rng.Float64() + 0.01
		}
		shares := w.QueryShares(freq)
		var sum float64
		for _, s := range shares {
			sum += s
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNormalizeQuick: NormalizeQueryFragments always yields sorted unique
// in-range lists, preserving the element set.
func TestNormalizeQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		n := 16
		var fr []int
		for _, v := range raw {
			fr = append(fr, int(v)%n)
		}
		if len(fr) == 0 {
			fr = []int{0}
		}
		w := &Workload{}
		for i := 0; i < n; i++ {
			w.Fragments = append(w.Fragments, Fragment{ID: i, Size: 1})
		}
		w.Queries = []Query{{ID: 0, Fragments: fr, Cost: 1, Frequency: 1}}
		want := map[int]bool{}
		for _, v := range fr {
			want[v] = true
		}
		w.NormalizeQueryFragments()
		got := w.Queries[0].Fragments
		if !sort.IntsAreSorted(got) || len(got) != len(want) {
			return false
		}
		for _, v := range got {
			if !want[v] {
				return false
			}
		}
		return w.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAllocationSetSemantics: AddFragment/HasFragment behave like a set
// under arbitrary operation sequences.
func TestAllocationSetSemantics(t *testing.T) {
	f := func(ops []uint8) bool {
		a := NewAllocation(1)
		ref := map[int]bool{}
		for _, op := range ops {
			v := int(op) % 32
			a.AddFragment(0, v)
			ref[v] = true
		}
		if len(a.Fragments[0]) != len(ref) {
			return false
		}
		for v := range ref {
			if !a.HasFragment(0, v) {
				return false
			}
		}
		for v := 0; v < 32; v++ {
			if a.HasFragment(0, v) != ref[v] {
				return false
			}
		}
		return sort.IntsAreSorted(a.Fragments[0])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCanRun(t *testing.T) {
	w := validWorkload()
	a := NewAllocation(2)
	a.AddFragment(0, 0)
	a.AddFragment(0, 1)
	a.AddFragment(1, 2)
	if !a.CanRun(&w.Queries[0], 0) || a.CanRun(&w.Queries[0], 1) {
		t.Error("CanRun wrong for query 0")
	}
	if a.CanRun(&w.Queries[1], 0) || !a.CanRun(&w.Queries[1], 1) {
		t.Error("CanRun wrong for query 1")
	}
}

func TestAllocationValidate(t *testing.T) {
	w := validWorkload()
	a := NewAllocation(2)
	a.AddFragment(0, 0)
	a.AddFragment(0, 1)
	a.AddFragment(1, 2)
	if err := a.Validate(w); err != nil {
		t.Fatal(err)
	}
	a.Shares = [][][]float64{{{1, 0}, {0, 1}}}
	if err := a.Validate(w); err != nil {
		t.Fatal(err)
	}
	// Share on a node that cannot run the query.
	a.Shares = [][][]float64{{{0.5, 0.5}, {0, 1}}}
	if err := a.Validate(w); err == nil {
		t.Error("want error for share on non-covering node")
	}
	// Shares not summing to 0 or 1.
	a.Shares = [][][]float64{{{0.5, 0}, {0, 1}}}
	if err := a.Validate(w); err == nil {
		t.Error("want error for partial share sum")
	}
}

func TestNodeLoads(t *testing.T) {
	w := validWorkload()
	a := NewAllocation(2)
	a.AddFragment(0, 0)
	a.AddFragment(0, 1)
	a.AddFragment(1, 2)
	a.Shares = [][][]float64{{{1, 0}, {0, 1}}}
	loads := a.NodeLoads(w, w.DefaultFrequencies(), 0)
	if math.Abs(loads[0]-0.25) > 1e-12 || math.Abs(loads[1]-0.75) > 1e-12 {
		t.Errorf("loads = %v, want [0.25 0.75]", loads)
	}
}

func TestCloneIndependence(t *testing.T) {
	w := validWorkload()
	c := w.Clone()
	c.Queries[0].Fragments[0] = 2
	c.Fragments[0].Size = 999
	if w.Queries[0].Fragments[0] == 2 || w.Fragments[0].Size == 999 {
		t.Error("Clone shares memory with the original")
	}

	a := NewAllocation(2)
	a.AddFragment(0, 1)
	a.Shares = [][][]float64{{{1, 0}, {0, 1}}}
	ac := a.Clone()
	ac.Fragments[0][0] = 2
	ac.Shares[0][0][0] = 0.3
	if a.Fragments[0][0] == 2 || a.Shares[0][0][0] == 0.3 {
		t.Error("Allocation.Clone shares memory")
	}
}

func TestScenarioSetValidate(t *testing.T) {
	w := validWorkload()
	ss := DefaultScenario(w)
	if err := ss.Validate(w); err != nil {
		t.Fatal(err)
	}
	bad := &ScenarioSet{Frequencies: [][]float64{{1}}}
	if err := bad.Validate(w); err == nil {
		t.Error("want error for wrong length")
	}
	neg := &ScenarioSet{Frequencies: [][]float64{{1, -1}}}
	if err := neg.Validate(w); err == nil {
		t.Error("want error for negative frequency")
	}
	zero := &ScenarioSet{Frequencies: [][]float64{{0, 0}}}
	if err := zero.Validate(w); err == nil {
		t.Error("want error for zero total cost")
	}
	if err := (&ScenarioSet{}).Validate(w); err == nil {
		t.Error("want error for empty set")
	}
	// Non-finite frequencies, and finite ones whose total cost overflows: a
	// set holding either could never be journaled as JSON.
	for _, freq := range [][]float64{
		{1, math.Inf(1)}, {math.NaN(), 1}, {1e308, 1e308},
	} {
		if err := (&ScenarioSet{Frequencies: [][]float64{freq}}).Validate(w); err == nil {
			t.Errorf("want error for frequencies %v", freq)
		}
	}
}

func TestExpectedLoads(t *testing.T) {
	w := validWorkload()
	ss := &ScenarioSet{Frequencies: [][]float64{{1, 1}, {3, 0}}}
	loads := ss.ExpectedLoads(w)
	// Query 0: (1*2 + 3*2)/2 = 4; query 1: (1*3 + 0)/2 = 1.5.
	if math.Abs(loads[0]-4) > 1e-12 || math.Abs(loads[1]-1.5) > 1e-12 {
		t.Errorf("expected loads = %v, want [4 1.5]", loads)
	}
}

func TestScenarioSetWeights(t *testing.T) {
	w := validWorkload()
	ss := &ScenarioSet{Frequencies: [][]float64{{1, 1}, {3, 0}}, Weights: []float64{3, 1}}
	if err := ss.Validate(w); err != nil {
		t.Fatal(err)
	}
	if got := ss.TotalWeight(); math.Abs(got-4) > 1e-12 {
		t.Errorf("TotalWeight = %g, want 4", got)
	}
	if ss.Weight(0) != 3 || ss.Weight(1) != 1 {
		t.Errorf("Weight = %g/%g, want 3/1", ss.Weight(0), ss.Weight(1))
	}
	// Weighted mean: query 0: (3·1·2 + 1·3·2)/4 = 3; query 1: 3·1·3/4 = 2.25.
	loads := ss.ExpectedLoads(w)
	if math.Abs(loads[0]-3) > 1e-12 || math.Abs(loads[1]-2.25) > 1e-12 {
		t.Errorf("weighted expected loads = %v, want [3 2.25]", loads)
	}
	// Weighted ≡ duplicated: the same set with scenario 0 expanded 3×.
	dup := &ScenarioSet{Frequencies: [][]float64{{1, 1}, {1, 1}, {1, 1}, {3, 0}}}
	dl := dup.ExpectedLoads(w)
	for j := range loads {
		if math.Abs(loads[j]-dl[j]) > 1e-12 {
			t.Errorf("query %d: weighted %g != duplicated %g", j, loads[j], dl[j])
		}
	}

	c := ss.Clone()
	c.Weights[0] = 99
	if ss.Weights[0] == 99 {
		t.Error("Clone shares the Weights slice")
	}

	for _, bad := range []*ScenarioSet{
		{Frequencies: ss.Frequencies, Weights: []float64{3}},              // wrong length
		{Frequencies: ss.Frequencies, Weights: []float64{3, 0}},           // non-positive
		{Frequencies: ss.Frequencies, Weights: []float64{3, math.Inf(1)}}, // non-finite
	} {
		if err := bad.Validate(w); err == nil {
			t.Errorf("want error for weights %v", bad.Weights)
		}
	}
}

func TestScenarioSetWeightsDigest(t *testing.T) {
	w := validWorkload()
	base := &ScenarioSet{Frequencies: [][]float64{{1, 1}, {3, 0}}}
	_ = w
	unweighted := base.Digest()
	weighted := &ScenarioSet{Frequencies: base.Frequencies, Weights: []float64{1, 1}}
	if weighted.Digest() == unweighted {
		t.Error("explicit weights must change the digest (journal back-compat keys off nil)")
	}
	other := &ScenarioSet{Frequencies: base.Frequencies, Weights: []float64{2, 1}}
	if weighted.Digest() == other.Digest() {
		t.Error("different weights must produce different digests")
	}
}

func TestReplicationFactorEdgeCases(t *testing.T) {
	w := validWorkload()
	a := NewAllocation(1)
	if rf := a.ReplicationFactor(w); rf != 0 {
		t.Errorf("empty allocation rf = %g, want 0", rf)
	}
	for i := range w.Fragments {
		a.AddFragment(0, i)
	}
	if rf := a.ReplicationFactor(w); math.Abs(rf-1) > 1e-12 {
		t.Errorf("single full node rf = %g, want 1", rf)
	}
}
