package fragalloc_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"fragalloc"
	"fragalloc/internal/mip"
)

// smallWorkload is a deterministic workload small enough for exact solves.
func smallWorkload() *fragalloc.Workload {
	w := &fragalloc.Workload{Name: "small"}
	sizes := []float64{50, 30, 20, 40, 10, 60, 25, 35}
	for i, s := range sizes {
		w.Fragments = append(w.Fragments, fragalloc.Fragment{ID: i, Size: s})
	}
	queries := [][]int{{0, 1}, {1, 2}, {3, 4}, {5}, {0, 5}, {6, 7}, {2, 6}}
	costs := []float64{5, 3, 4, 6, 2, 3, 1}
	for j, fr := range queries {
		w.Queries = append(w.Queries, fragalloc.Query{
			ID: j, Fragments: fr, Cost: costs[j], Frequency: 1,
		})
	}
	return w
}

func TestEndToEndAllocateAndEvaluate(t *testing.T) {
	w := smallWorkload()
	res, err := fragalloc.Allocate(w, nil, 3, fragalloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Allocation.Validate(w); err != nil {
		t.Fatal(err)
	}
	if res.ReplicationFactor < 1 || res.ReplicationFactor > 3 {
		t.Errorf("replication %.3f outside [1, K]", res.ReplicationFactor)
	}
	l, err := fragalloc.WorstLoad(w, res.Allocation, w.DefaultFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-1.0/3) > 1e-6 {
		t.Errorf("in-sample worst load %.6f, want 1/3", l)
	}
}

func TestGreedyVsLP(t *testing.T) {
	w := smallWorkload()
	g, err := fragalloc.GreedyAllocate(w, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := fragalloc.Allocate(w, nil, 3, fragalloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The LP-based allocation is seeded with greedy, so it is never worse.
	if lp.W > g.TotalData(w)+1e-9 {
		t.Errorf("LP allocation (%.0f) uses more data than greedy (%.0f)", lp.W, g.TotalData(w))
	}
}

func TestRobustScenarios(t *testing.T) {
	w := smallWorkload()
	seen := fragalloc.InSampleScenarios(w, 3, fragalloc.DefaultPresence, 5)
	res, err := fragalloc.Allocate(w, seen, 2, fragalloc.Options{
		MIP: mip.Options{MaxNodes: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := fragalloc.OutOfSampleScenarios(w, 10, fragalloc.DefaultPresence, 6)
	m, err := fragalloc.Evaluate(w, res.Allocation, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.L) != 10 {
		t.Fatalf("got %d scenario evaluations, want 10", len(m.L))
	}
	if m.MeanThroughput <= 0 || m.MeanThroughput > 1+1e-9 {
		t.Errorf("mean throughput %.4f outside (0,1]", m.MeanThroughput)
	}
}

func TestFullReplicationPerfect(t *testing.T) {
	w := smallWorkload()
	full := fragalloc.FullReplication(w, 4)
	out := fragalloc.OutOfSampleScenarios(w, 8, fragalloc.DefaultPresence, 7)
	m, err := fragalloc.Evaluate(w, full, out)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MeanThroughput-1) > 1e-6 || math.Abs(m.MeanGap) > 1e-6 {
		t.Errorf("full replication not perfect: gap %.6f throughput %.4f", m.MeanGap, m.MeanThroughput)
	}
}

func TestMergeCoversAllScenarios(t *testing.T) {
	w := smallWorkload()
	seen := fragalloc.InSampleScenarios(w, 4, fragalloc.DefaultPresence, 8)
	alloc, err := fragalloc.GreedyMergeAllocate(w, seen, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := range seen.Frequencies {
		l, err := fragalloc.WorstLoad(w, alloc, seen.Frequencies[s])
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(l, 1) {
			t.Errorf("merged allocation cannot serve seen scenario %d", s)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := smallWorkload()
	wPath := filepath.Join(dir, "w.json")
	if err := fragalloc.SaveJSON(wPath, w); err != nil {
		t.Fatal(err)
	}
	w2, err := fragalloc.LoadWorkload(wPath)
	if err != nil {
		t.Fatal(err)
	}
	if w2.NumQueries() != w.NumQueries() || w2.NumFragments() != w.NumFragments() {
		t.Fatal("workload round trip lost data")
	}

	alloc, err := fragalloc.GreedyAllocate(w, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	aPath := filepath.Join(dir, "a.json")
	if err := fragalloc.SaveJSON(aPath, alloc); err != nil {
		t.Fatal(err)
	}
	a2, err := fragalloc.LoadAllocation(aPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.Validate(w); err != nil {
		t.Fatal(err)
	}
	if a2.TotalData(w) != alloc.TotalData(w) {
		t.Error("allocation round trip changed data size")
	}

	ss := fragalloc.InSampleScenarios(w, 3, 0.5, 1)
	sPath := filepath.Join(dir, "s.json")
	if err := fragalloc.SaveJSON(sPath, ss); err != nil {
		t.Fatal(err)
	}
	ss2, err := fragalloc.LoadScenarioSet(sPath)
	if err != nil {
		t.Fatal(err)
	}
	if ss2.S() != 3 {
		t.Fatalf("scenario set round trip: S=%d, want 3", ss2.S())
	}
}

func TestChunkParsingFacade(t *testing.T) {
	spec, err := fragalloc.ParseChunks("4+4")
	if err != nil || spec.Leaves != 8 {
		t.Fatalf("ParseChunks: %v %v", spec, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParseChunks should panic on bad input")
		}
	}()
	fragalloc.MustParseChunks("nope")
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := fragalloc.LoadWorkload(filepath.Join(os.TempDir(), "does-not-exist-fragalloc.json")); err == nil {
		t.Error("want error for missing file")
	}
}
