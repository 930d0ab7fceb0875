// Benchmarks regenerating each table and figure of the paper at bench
// scale: the same code paths as cmd/paper, with one or two rows per table
// and small solver budgets so the full suite finishes in minutes. Run
//
//	go test -bench=. -benchmem
//
// and use cmd/paper for the full (and -full for the paper-scale) row sets.
package fragalloc_test

import (
	"io"
	"testing"
	"time"

	"fragalloc"
	"fragalloc/internal/experiments"
	"fragalloc/internal/mip"
)

func benchConfig(workload string) experiments.Config {
	return experiments.Config{
		Workload:    workload,
		Bench:       true,
		Budget:      2 * time.Second,
		OutOfSample: 5,
		MaxQ:        120,
		Seed:        1,
		Out:         io.Discard,
	}
}

func runBench(b *testing.B, f func(experiments.Config) error, workload string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := f(benchConfig(workload)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1TPCDS regenerates the Figure 1a workload-skew distribution.
func BenchmarkFig1TPCDS(b *testing.B) { runBench(b, experiments.Fig1, "tpcds") }

// BenchmarkFig1Accounting regenerates the Figure 1b distribution.
func BenchmarkFig1Accounting(b *testing.B) { runBench(b, experiments.Fig1, "accounting") }

// BenchmarkTable1TPCDS runs Table 1a rows: decomposition vs greedy.
func BenchmarkTable1TPCDS(b *testing.B) { runBench(b, experiments.Table1, "tpcds") }

// BenchmarkTable1Accounting runs Table 1b rows on the truncated workload.
func BenchmarkTable1Accounting(b *testing.B) { runBench(b, experiments.Table1, "accounting") }

// BenchmarkTable2TPCDS runs a Table 2a partial-clustering row.
func BenchmarkTable2TPCDS(b *testing.B) { runBench(b, experiments.Table2, "tpcds") }

// BenchmarkTable2Accounting runs a Table 2b row at full Q = 4461.
func BenchmarkTable2Accounting(b *testing.B) { runBench(b, experiments.Table2, "accounting") }

// BenchmarkTable3TPCDS runs Table 3a robustness rows (ours + merge).
func BenchmarkTable3TPCDS(b *testing.B) { runBench(b, experiments.Table3, "tpcds") }

// BenchmarkTable3Accounting runs Table 3b robustness rows.
func BenchmarkTable3Accounting(b *testing.B) { runBench(b, experiments.Table3, "accounting") }

// BenchmarkFig2 runs the Figure 2 memory/throughput frontier points.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig2(benchConfig("tpcds"), false); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel-driver benchmarks: the same decomposed TPC-DS K=8 solve with
// the worker pool off (Parallelism 1) and sized to the machine
// (Parallelism 0 = GOMAXPROCS). Node budgets, not wall-clock, bound the
// work, so both run the identical search and the ratio is pure scheduling
// speedup (1x on a single-core machine, approaching the group count on
// wider ones).
func benchAllocateK8(b *testing.B, parallelism int) {
	w := fragalloc.TPCDSWorkload()
	for i := 0; i < b.N; i++ {
		_, err := fragalloc.Allocate(w, nil, 8, fragalloc.Options{
			Chunks:      fragalloc.MustParseChunks("4+4"),
			Parallelism: parallelism,
			MIP:         mip.Options{MaxNodes: 150},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocateK8Serial(b *testing.B)   { benchAllocateK8(b, 1) }
func BenchmarkAllocateK8Parallel(b *testing.B) { benchAllocateK8(b, 0) }
