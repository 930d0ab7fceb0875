package core

import (
	"testing"

	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

// BenchmarkMIPSearch measures the branch-and-bound search on rows of each
// paper workload. Besides wall time it reports the search effort — nodes/op
// and lpiters/op — which is what presolve, pseudocost branching and Devex
// pricing are meant to collapse.
//
// The plain rows run at the loose kernelGap certificate, where the search
// terminates after a handful of nodes on incumbent slack. The -cluster rows
// are the headline: partial clustering (FixedQueries) plus a tight 1e-6 gap
// makes the search prove the optimum, so their node counts measure a full
// bound-proving tree (see DESIGN.md §3.10).
func BenchmarkMIPSearch(b *testing.B) {
	cases := []struct {
		name  string
		w     *model.Workload
		fixed int     // partial clustering: queries pinned to node 0
		gap   float64 // per-subproblem certified RelGap
	}{
		{name: "accounting", w: accountingSubset(16), gap: kernelGap},
		{name: "tpcds", w: tpcdsSubset(16), gap: kernelGap},
		{name: "tpcds-cluster16", w: tpcdsSubset(16), fixed: 8, gap: 1e-6},
		{name: "accounting-cluster24", w: accountingSubset(24), fixed: 12, gap: 1e-6},
		{name: "tpcds-cluster24", w: tpcdsSubset(24), fixed: 12, gap: 1e-6},
	}
	for _, c := range cases {
		c := c
		seen := scenario.InSample(c.w, 2, scenario.DefaultP, 1)
		spec, err := ParseChunks("2+2")
		if err != nil {
			b.Fatal(err)
		}
		b.Run("table="+c.name, func(b *testing.B) {
			var nodes, iters int
			for i := 0; i < b.N; i++ {
				r, err := Allocate(c.w, seen, 4, Options{
					Chunks: spec, Parallelism: 2, FixedQueries: c.fixed, MIP: mip.Options{RelGap: c.gap},
				})
				if err != nil {
					b.Fatal(err)
				}
				nodes += r.BBNodes
				iters += r.LPIters
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(iters)/float64(b.N), "lpiters/op")
		})
	}
}
