package accounting

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"fragalloc/internal/model"
)

func TestWorkloadShape(t *testing.T) {
	w := Workload()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := w.NumFragments(); got != NumColumns {
		t.Errorf("N = %d, want %d", got, NumColumns)
	}
	if got := w.NumQueries(); got != NumQueries {
		t.Errorf("Q = %d, want %d", got, NumQueries)
	}
	for _, q := range w.Queries {
		if len(q.Fragments) < 2 {
			t.Errorf("query %s accesses only %d fragments", q.Name, len(q.Fragments))
		}
		if q.Cost <= 0 || q.Frequency < 1 {
			t.Errorf("query %s has cost %g frequency %g", q.Name, q.Cost, q.Frequency)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, b := Workload(), Workload()
	for j := range a.Queries {
		if a.Queries[j].Cost != b.Queries[j].Cost || a.Queries[j].Frequency != b.Queries[j].Frequency {
			t.Fatalf("query %d differs between runs", j)
		}
	}
	c := WorkloadSeed(1234)
	same := true
	for j := range a.Queries {
		if a.Queries[j].Cost != c.Queries[j].Cost {
			same = false
			break
		}
	}
	if same {
		t.Error("different seed produced identical workload")
	}
}

// digest canonically serializes everything solver input is built from —
// fragment sizes, per-query fragment lists in stored order, and the exact
// bits of every float — so any nondeterminism in construction (such as an
// unsorted map range feeding the fragment lists) changes the hash.
func digest(w *model.Workload) uint64 {
	h := fnv.New64a()
	for _, f := range w.Fragments {
		fmt.Fprintf(h, "f|%d|%s|%x\n", f.ID, f.Name, math.Float64bits(f.Size))
	}
	for _, q := range w.Queries {
		fmt.Fprintf(h, "q|%d|%s|%x|%x|%v\n", q.ID, q.Name,
			math.Float64bits(q.Frequency), math.Float64bits(q.Cost), q.Fragments)
	}
	return h.Sum64()
}

// TestSeededSameOutput is the regression test for the unsorted map range
// that used to build each query's fragment list: two independent builds
// with the same seed must be bit-identical, and the stored fragment lists
// must already be in sorted order (the generator sorts them itself rather
// than relying on NormalizeQueryFragments to repair map-iteration order).
func TestSeededSameOutput(t *testing.T) {
	for _, seed := range []int64{DefaultSeed, 1234} {
		a, b := WorkloadSeed(seed), WorkloadSeed(seed)
		da, db := digest(a), digest(b)
		if da != db {
			t.Errorf("seed %d: digests differ between builds: %#x vs %#x", seed, da, db)
		}
		for _, q := range a.Queries {
			if !sort.IntsAreSorted(q.Fragments) {
				t.Fatalf("seed %d: query %s has unsorted fragment list %v", seed, q.Name, q.Fragments)
			}
		}
	}
}

// TestSkew verifies the Figure 1b property: top-50 of 4461 templates carry
// more than 92 % of the total load f_j*c_j.
func TestSkew(t *testing.T) {
	w := Workload()
	shares := w.QueryShares(w.DefaultFrequencies())
	sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
	var top50 float64
	for _, s := range shares[:50] {
		top50 += s
	}
	if top50 < 0.85 {
		t.Errorf("top-50 share %.4f, want >= 0.85 (paper: 0.92)", top50)
	}
	t.Logf("top-50 share: %.4f (paper reports > 0.92)", top50)
}

// TestCoreColumnsHot checks that the core key columns are accessed by the
// overwhelming majority of templates (the structural reason partial
// clustering works so well on this workload).
func TestCoreColumnsHot(t *testing.T) {
	w := Workload()
	counts := make([]int, NumColumns)
	for _, q := range w.Queries {
		for _, f := range q.Fragments {
			counts[f]++
		}
	}
	hot := 0
	for i := 0; i < coreColumns; i++ {
		if counts[i] > NumQueries/4 {
			hot++
		}
	}
	if hot < coreColumns/2 {
		t.Errorf("only %d of %d core columns are hot", hot, coreColumns)
	}
}
