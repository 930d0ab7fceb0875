package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fragalloc/internal/mip"
	"fragalloc/internal/model"
)

func TestParseChunks(t *testing.T) {
	cases := []struct {
		in     string
		leaves int
		str    string
	}{
		{"6", 6, "6"},
		{"4+4", 8, "4+4"},
		{"2+2+1", 5, "2+2+1"},
		{"(2+2)+(2+2)", 8, "(2+2)+(2+2)"},
		{" 3 + 3 ", 6, "3+3"},
		{"4+3+3", 10, "4+3+3"},
	}
	for _, c := range cases {
		spec, err := ParseChunks(c.in)
		if err != nil {
			t.Errorf("ParseChunks(%q): %v", c.in, err)
			continue
		}
		if spec.Leaves != c.leaves {
			t.Errorf("ParseChunks(%q).Leaves = %d, want %d", c.in, spec.Leaves, c.leaves)
		}
		if got := spec.String(); got != c.str {
			t.Errorf("ParseChunks(%q).String() = %q, want %q", c.in, got, c.str)
		}
	}
	for _, bad := range []string{"", "0", "-1", "2+", "+2", "(2+2", "2)", "a+b", "2++2",
		"9223372036854775807+1", "4611686018427387904+4611686018427387904", "(4611686018427387904+4611686018427387903)+1"} {
		if _, err := ParseChunks(bad); err == nil {
			t.Errorf("ParseChunks(%q): want error", bad)
		}
	}
}

// starWorkload: one shared fragment plus one private fragment per query.
// With K = #queries and equal loads, the optimal allocation puts one query
// per node: W = K*shared + sum(private).
func starWorkload(n int, shared, private float64) *model.Workload {
	w := &model.Workload{Name: "star"}
	w.Fragments = append(w.Fragments, model.Fragment{ID: 0, Size: shared})
	for j := 0; j < n; j++ {
		w.Fragments = append(w.Fragments, model.Fragment{ID: j + 1, Size: private})
		w.Queries = append(w.Queries, model.Query{
			ID: j, Fragments: []int{0, j + 1}, Cost: 1, Frequency: 1,
		})
	}
	return w
}

// checkResult validates the allocation, the in-sample balance of every
// scenario, and share conservation.
func checkResult(t *testing.T, w *model.Workload, ss *model.ScenarioSet, res *Result) {
	t.Helper()
	alloc := res.Allocation
	if err := alloc.Validate(w); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	if ss == nil {
		ss = model.DefaultScenario(w)
	}
	// Balance is soft in the model (α-penalized): under a search budget the
	// incumbent may be imbalanced, but the realized loads must then be
	// consistent with the reported MaxLoad.
	limit := math.Max(res.MaxLoad, 1) / float64(alloc.K)
	for s, freq := range ss.Frequencies {
		loads := alloc.NodeLoads(w, freq, s)
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
		// Share conservation per active query.
		for j := range w.Queries {
			if freq[j] <= 0 || w.Queries[j].Cost <= 0 {
				continue
			}
			var sum float64
			for k := 0; k < alloc.K; k++ {
				sum += alloc.Shares[s][j][k]
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Errorf("scenario %d query %d shares sum %.6f, want 1", s, j, sum)
			}
		}
	}
	if res.ReplicationFactor < 1-1e-9 {
		t.Errorf("replication factor %.4f below 1", res.ReplicationFactor)
	}
}

func TestExactStar(t *testing.T) {
	w := starWorkload(3, 10, 5)
	res, err := Allocate(w, nil, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w, nil, res)
	// Optimal: one query per node -> W = 3*10 + 3*5 = 45, V = 25, W/V = 1.8.
	if math.Abs(res.ReplicationFactor-1.8) > 1e-6 {
		t.Errorf("replication = %.4f, want 1.8", res.ReplicationFactor)
	}
	if !res.Exact {
		t.Error("expected exact solve")
	}
	if math.Abs(res.MaxLoad-1) > 1e-6 {
		t.Errorf("MaxLoad = %.4f, want 1 (perfect balance)", res.MaxLoad)
	}
}

func TestDisjointQueriesNoReplication(t *testing.T) {
	// Two disjoint equal-load queries on two nodes: W/V must be exactly 1.
	w := &model.Workload{
		Fragments: []model.Fragment{{ID: 0, Size: 7}, {ID: 1, Size: 3}},
		Queries: []model.Query{
			{ID: 0, Fragments: []int{0}, Cost: 1, Frequency: 1},
			{ID: 1, Fragments: []int{1}, Cost: 1, Frequency: 1},
		},
	}
	res, err := Allocate(w, nil, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w, nil, res)
	if math.Abs(res.ReplicationFactor-1) > 1e-6 {
		t.Errorf("replication = %.4f, want 1", res.ReplicationFactor)
	}
}

func TestSingleNode(t *testing.T) {
	w := starWorkload(4, 2, 1)
	res, err := Allocate(w, nil, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w, nil, res)
	if math.Abs(res.ReplicationFactor-1) > 1e-9 {
		t.Errorf("replication = %.4f, want 1", res.ReplicationFactor)
	}
}

// budget bounds the search on the random test instances: plenty to find
// good incumbents, far too little to prove optimality (which, as in the
// paper, can take hours even for small K).
var budget = mip.Options{MaxNodes: 3000}

func TestDecompositionChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := randomWorkload(rng, 24, 20)
	spec, _ := ParseChunks("2+2")
	res, err := Allocate(w, nil, 4, Options{Chunks: spec, MIP: budget})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w, nil, res)

	// The single full solve should not be dramatically worse than the
	// chunked one (both run under a node budget, so allow slack).
	exact, err := Allocate(w, nil, 4, Options{MIP: budget})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w, nil, exact)
	if exact.ReplicationFactor > res.ReplicationFactor*1.25 {
		t.Errorf("full-solve replication %.4f much worse than chunked %.4f",
			exact.ReplicationFactor, res.ReplicationFactor)
	}
}

func TestNestedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w := randomWorkload(rng, 20, 16)
	spec, _ := ParseChunks("(2+2)+2")
	res, err := Allocate(w, nil, 6, Options{Chunks: spec, MIP: budget})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w, nil, res)
}

func TestUnevenChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := randomWorkload(rng, 18, 14)
	spec, _ := ParseChunks("2+1")
	res, err := Allocate(w, nil, 3, Options{Chunks: spec, MIP: budget})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w, nil, res)
}

func TestPartialClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := randomWorkload(rng, 30, 40)
	// Make a few queries dominant so the small ones can be fixed.
	for j := 0; j < 5; j++ {
		w.Queries[j].Cost = 100
	}
	res, err := Allocate(w, nil, 3, Options{FixedQueries: 20, MIP: budget})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w, nil, res)
	if len(res.FixedQueries) != 20 {
		t.Fatalf("fixed %d queries, want 20", len(res.FixedQueries))
	}
	// Every fixed query must be routed entirely to node 0.
	for _, j := range res.FixedQueries {
		if z := res.Allocation.Shares[0][j][0]; math.Abs(z-1) > 1e-6 {
			t.Errorf("fixed query %d has share %.4f on node 0, want 1", j, z)
		}
	}
}

func TestClusteringTooManyQueries(t *testing.T) {
	// All queries equal load: fixing nearly all of them overloads node 0.
	w := starWorkload(10, 1, 1)
	_, err := Allocate(w, nil, 5, Options{FixedQueries: 9})
	if err == nil {
		t.Fatal("want error when fixed queries exceed node capacity")
	}
}

func TestMultiScenario(t *testing.T) {
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
	res, err := Allocate(w, ss, 3, Options{MIP: budget})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w, ss, res)

	// Robust allocation must use at least as much memory as the S=1 one.
	single, err := Allocate(w, model.SingleScenario(base), 3, Options{MIP: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicationFactor < single.ReplicationFactor-1e-6 {
		t.Errorf("multi-scenario replication %.4f below single-scenario %.4f",
			res.ReplicationFactor, single.ReplicationFactor)
	}
}

func TestZeroFrequencyQueryExcluded(t *testing.T) {
	w := &model.Workload{
		Fragments: []model.Fragment{{ID: 0, Size: 1}, {ID: 1, Size: 50}},
		Queries: []model.Query{
			{ID: 0, Fragments: []int{0}, Cost: 1, Frequency: 1},
			{ID: 1, Fragments: []int{1}, Cost: 1, Frequency: 0},
		},
	}
	res, err := Allocate(w, nil, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if res.Allocation.HasFragment(k, 1) {
			t.Errorf("node %d stores fragment of a never-run query", k)
		}
	}
}

func TestInputValidation(t *testing.T) {
	w := starWorkload(3, 1, 1)
	if _, err := Allocate(w, nil, 0, Options{}); err == nil {
		t.Error("want error for K=0")
	}
	spec, _ := ParseChunks("2+2")
	if _, err := Allocate(w, nil, 3, Options{Chunks: spec}); err == nil {
		t.Error("want error for chunk/K mismatch")
	}
	if _, err := Allocate(w, nil, 2, Options{FixedQueries: -1}); err == nil {
		t.Error("want error for negative F")
	}
	if _, err := Allocate(w, nil, 2, Options{FixedQueries: 99}); err == nil {
		t.Error("want error for F > Q")
	}
}

// TestNodeBudgetStillFeasible: a node budget that stops the search short
// of a proof still yields a complete, valid allocation.
func TestNodeBudgetStillFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w := randomWorkload(rng, 40, 30)
	res, err := Allocate(w, nil, 4, Options{
		MIP: mip.Options{MaxNodes: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("a 5-node budget proved the K=4 split optimal; it no longer binds")
	}
	checkResult(t, w, nil, res)
}

// randomWorkload builds a small random but valid workload for tests.
func randomWorkload(rng *rand.Rand, n, q int) *model.Workload {
	w := &model.Workload{Name: "rand"}
	for i := 0; i < n; i++ {
		w.Fragments = append(w.Fragments, model.Fragment{ID: i, Size: 1 + rng.Float64()*99})
	}
	for j := 0; j < q; j++ {
		nf := 1 + rng.Intn(4)
		seen := map[int]bool{}
		var fr []int
		for len(fr) < nf {
			i := rng.Intn(n)
			if !seen[i] {
				seen[i] = true
				fr = append(fr, i)
			}
		}
		w.Queries = append(w.Queries, model.Query{
			ID: j, Fragments: fr, Cost: 0.1 + rng.Float64()*10, Frequency: 1,
		})
	}
	w.NormalizeQueryFragments()
	return w
}

func TestExportLP(t *testing.T) {
	w := starWorkload(3, 10, 5)
	var buf bytes.Buffer
	if err := ExportLP(&buf, w, nil, 2, Options{FixedQueries: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Minimize", "Subject To", "Binary", "L", "y_", "x_", "z_", "End"} {
		if !strings.Contains(out, want) {
			t.Errorf("LP export missing %q", want)
		}
	}
	if err := ExportLP(&buf, w, nil, 0, Options{}); err == nil {
		t.Error("want error for K=0")
	}
}
