package eval

import (
	"fmt"
	"runtime"
	"testing"

	"fragalloc/internal/accounting"
	"fragalloc/internal/core"
	"fragalloc/internal/greedy"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
	"fragalloc/internal/tpcds"
)

// benchFixture is the streaming-evaluator workload: the TPC-DS catalog
// (425 fragments, 94 queries), a greedy allocation over K=8 nodes, and a
// large out-of-sample scenario sweep. -short trims the sweep so the
// benchcompile rot guard stays fast.
func benchFixture(b *testing.B) (*model.Workload, *model.Allocation, *model.ScenarioSet) {
	b.Helper()
	w := tpcds.Workload()
	alloc, err := greedy.Allocate(w, w.DefaultFrequencies(), 8)
	if err != nil {
		b.Fatal(err)
	}
	s := 1000
	if testing.Short() {
		s = 20
	}
	return w, alloc, scenario.OutOfSample(w, s, scenario.DefaultP, 71)
}

// BenchmarkWorstLoad measures one scenario's L̃ against the Table 2b
// allocation: the accounting workload's 4 461 queries solved 4+4 over K=8
// with F=4361 clustered (the benchmark's accounting_cluster_k8 row), evaluated
// on out-of-sample scenarios. The flow network has one vertex per
// runnable-set class, reported as the classes metric.
func BenchmarkWorstLoad(b *testing.B) {
	w := accounting.Workload()
	spec, err := core.ParseChunks("4+4")
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Allocate(w, nil, 8, core.Options{
		Chunks: spec, FixedQueries: 4361, Parallelism: 1,
		MIP: mip.Options{MaxNodes: 300, MaxStallNodes: 150},
	})
	if err != nil {
		b.Fatal(err)
	}
	unseen := scenario.OutOfSample(w, 200, scenario.DefaultP, 1001)
	e := NewEvaluator(w, res.Allocation, 0)
	if _, err := e.WorstLoad(unseen.Frequencies[0]); err != nil { // size the graph's scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.WorstLoad(unseen.Frequencies[i%unseen.S()]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(e.classNodes)), "classes")
}

// BenchmarkWorstLoadK times both of WorstLoad's searches per scenario at
// each node count: the TPC-DS catalog, a greedy allocation over K nodes and
// 200 unseen scenarios (20 under -short). path=cut is the closed form over
// the 2^K subset sums, path=flow the parametric max-flow search; WorstLoad
// takes the cut up to cutMaxK, whose comment records where they cross.
func BenchmarkWorstLoadK(b *testing.B) {
	w := tpcds.Workload()
	s := 200
	if testing.Short() {
		s = 20
	}
	unseen := scenario.OutOfSample(w, s, scenario.DefaultP, 1001)
	for _, k := range []int{4, 8, 10, 12, 14, 16} {
		alloc, err := greedy.Allocate(w, w.DefaultFrequencies(), k)
		if err != nil {
			b.Fatal(err)
		}
		e := NewEvaluator(w, alloc, 0)
		if e.g == nil {
			e.buildFlow()
		}
		if e.sums == nil {
			e.buildCut()
		}
		for _, path := range []struct {
			name   string
			search func(lo, totalLoad float64) float64
		}{
			{"cut", func(lo, _ float64) float64 { return e.worstCut(lo) }},
			{"flow", e.worstFlow},
		} {
			b.Run(fmt.Sprintf("K=%d/path=%s", k, path.name), func(b *testing.B) {
				lo, totalLoad, _ := e.prepare(unseen.Frequencies[0])
				path.search(lo, totalLoad) // size the graph's scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lo, totalLoad, err := e.prepare(unseen.Frequencies[i%s])
					if err != nil {
						b.Fatal(err)
					}
					path.search(lo, totalLoad)
				}
				b.ReportMetric(float64(len(e.classNodes)), "classes")
			})
		}
	}
}

// BenchmarkEvalStream measures one full out-of-sample sweep per op.
//
//	mode=naive   the pre-streaming path: rebuild executability sets and the
//	             flow graph for every scenario, bisect L with from-scratch
//	             max-flow probes
//	mode=cached  one reused Evaluator (at K=8 the closed form), serial
//	mode=par     EvaluateStream at GOMAXPROCS workers
//
// The three modes separate what cache reuse and the closed form (cached)
// buy from what parallelism (par) buys.
func BenchmarkEvalStream(b *testing.B) {
	w, alloc, ss := benchFixture(b)
	b.Run("mode=naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, freq := range ss.Frequencies {
				if _, err := NewEvaluator(w, alloc, 1e-9).worstLoadBisect(freq); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("mode=cached", func(b *testing.B) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			if _, err := EvaluateStream(w, alloc, ss, StreamOptions{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		// Allocs/op assertion: the hot path must be allocation-free per
		// scenario — only the per-sweep Evaluator construction and result
		// slices may allocate, which amortize to O(1) per scenario.
		perScenario := float64(after.Mallocs-before.Mallocs) / float64(b.N) / float64(ss.S())
		if !testing.Short() && perScenario > 3 {
			b.Fatalf("streaming path allocates %.1f times per scenario, want amortized < 3", perScenario)
		}
	})
	b.Run("mode=par", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EvaluateStream(w, alloc, ss, StreamOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
