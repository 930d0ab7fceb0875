package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"fragalloc/internal/accounting"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

// accountingSubset mirrors tpcdsSubset for the accounting workload.
func accountingSubset(maxQ int) *model.Workload {
	w := accounting.Workload().Clone()
	sort.SliceStable(w.Queries, func(a, b int) bool { return w.Queries[a].Cost > w.Queries[b].Cost })
	w.Queries = w.Queries[:maxQ]
	sort.SliceStable(w.Queries, func(a, b int) bool { return w.Queries[a].ID < w.Queries[b].ID })
	for j := range w.Queries {
		w.Queries[j].ID = j
	}
	w.Name += fmt.Sprintf("-top%d", maxQ)
	return w
}

// kernelGap is the per-subproblem relative optimality gap the regression
// runs use. The default 1e-6 gap makes the branch-and-bound grind for
// minutes on these rows; a looser certified gap keeps the tests and
// benchmarks fast.
const kernelGap = 1e-3

// TestKernelSwapRegression pins the reproducibility of the full allocation
// pipeline on one row of each paper workload: the same inputs solved twice
// at Parallelism 2 must give bit-identical objectives, search statistics,
// placements and routing shares — the sparse LU kernel, presolve,
// pseudocost branching and Devex pricing are all deterministic, so the PR 1
// guarantee holds through them.
func TestKernelSwapRegression(t *testing.T) {
	cases := []struct {
		name string
		w    *model.Workload
	}{
		{"accounting", accountingSubset(16)},
		{"tpcds", tpcdsSubset(16)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seen := scenario.InSample(c.w, 2, scenario.DefaultP, 1)
			spec, err := ParseChunks("2+2")
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Chunks: spec, Parallelism: 2, MIP: mip.Options{RelGap: kernelGap}}
			r1, err := Allocate(c.w, seen, 4, opt)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Allocate(c.w, seen, 4, opt)
			if err != nil {
				t.Fatal(err)
			}
			if r1.W != r2.W || r1.V != r2.V || r1.BBNodes != r2.BBNodes || r1.LPIters != r2.LPIters {
				t.Errorf("pipeline not reproducible: W %v vs %v, V %v vs %v, nodes %d vs %d, lpiters %d vs %d",
					r1.W, r2.W, r1.V, r2.V, r1.BBNodes, r2.BBNodes, r1.LPIters, r2.LPIters)
			}
			if !reflect.DeepEqual(r1.Allocation.Fragments, r2.Allocation.Fragments) {
				t.Error("pipeline not reproducible: fragment placement differs between runs")
			}
			if !reflect.DeepEqual(r1.Allocation.Shares, r2.Allocation.Shares) {
				t.Error("pipeline not reproducible: routing shares differ between runs")
			}
			if r1.LPIters <= 0 {
				t.Errorf("LPIters = %d, want positive (aggregation broken)", r1.LPIters)
			}
		})
	}
}
