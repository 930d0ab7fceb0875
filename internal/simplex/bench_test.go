package simplex

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Benchmarks of the sparse LU kernel on the code paths the MIP solver
// exercises hardest: cold solves, warm dual re-solves after bound changes,
// basis refactorization, and the per-pivot FTRAN/BTRAN solves themselves.

// benchLP draws a feasible bounded sparse LP with m rows and n structural
// variables; the square ~3-nonzeros-per-row draw has the shape of the
// allocation subproblems.
func benchLP(m, n, nnzPerRow int) *Problem {
	rng := rand.New(rand.NewSource(int64(m)))
	_, _, _, _, p := randomSparseLP(rng, n, m, nnzPerRow)
	// Cap every variable so the LP is bounded regardless of the draw.
	for j := range p.UB {
		if math.IsInf(p.UB[j], 1) {
			p.UB[j] = 10
		}
	}
	return p
}

// BenchmarkColdSolve is NewSolver + two-phase primal from scratch — the
// eval and root-relaxation path.
func BenchmarkColdSolve(b *testing.B) {
	for _, m := range []int{512, 2048} {
		p := benchLP(m, m, 3)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Solve(p, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != StatusOptimal {
					b.Fatalf("status %v", res.Status)
				}
			}
		})
	}
}

// BenchmarkWarmDualReSolve is the branch-and-bound inner loop: fix a
// variable, dual re-solve, relax it, dual re-solve. The dominant consumer
// is internal/mip, which performs thousands of these per search.
func BenchmarkWarmDualReSolve(b *testing.B) {
	for _, m := range []int{512, 2048} {
		p := benchLP(m, m, 3)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			s, err := NewSolver(p, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if res := s.Solve(); res.Status != StatusOptimal {
				b.Fatalf("setup solve: %v", res.Status)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % 16
				lb, ub := s.Bounds(j)
				s.SetBound(j, lb, lb)
				if res := s.ReSolveDual(); res.Status == StatusUnknown {
					b.Fatalf("re-solve: %v", res.Status)
				}
				s.SetBound(j, lb, ub)
				if res := s.ReSolveDual(); res.Status != StatusOptimal {
					b.Fatalf("restore re-solve: %v", res.Status)
				}
			}
		})
	}
}

// BenchmarkRefactor builds a kernel and factorizes the optimal basis of a
// solved LP, capturing both the time and — via -benchmem — the allocation
// footprint of a from-scratch factorization (the kernel's fill).
func BenchmarkRefactor(b *testing.B) {
	for _, m := range []int{512, 2048, 4096} {
		p := benchLP(m, m, 3)
		s, err := NewSolver(p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res := s.Solve(); res.Status != StatusOptimal {
			b.Fatalf("setup solve: %v", res.Status)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := newLUKernel(s.m, s.opt.MaxFactorNonzeros)
				if err := k.factor(s.basic, s.cols, s.pivotTol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelSolves times the three solves a simplex pivot issues, on a
// basis of the lp_wide shape (bench/README.md: BuildRootLP of the reduced
// TPC-DS set has 2748 rows, 3301 columns, ~5 nonzeros per row) behind two
// eta files: 24 updates past its factorization, the length an average solve
// finds under the work-balanced refresh (TestRefreshCadenceTPCDS logs it),
// and 60 updates past it, the middle of the fixed 120-update window that
// DESIGN.md §3.8's PR 13 numbers were taken in. btranPair does the work of
// two btran calls; the pair sweep pays off when its ns/op stays well under
// twice btran's.
func BenchmarkKernelSolves(b *testing.B) {
	s, err := NewSolver(benchLP(2748, 3301, 5), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal {
		b.Fatalf("setup solve: %v", res.Status)
	}
	if err := s.refactor(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(60))
	for _, etas := range []int{24, 60} {
		for s.updates < etas {
			j := rng.Intn(s.ncols)
			if s.vstat[j] == isBasic {
				continue
			}
			w := s.ftran(j)
			r := 0
			for i := range w {
				if math.Abs(w[i]) > math.Abs(w[r]) {
					r = i
				}
			}
			if math.Abs(w[r]) < 0.1 {
				continue
			}
			s.pivot(r, j, w)
		}
		col := append([]float64(nil), s.ftran(0)...) // any dense-ish row-indexed right-hand side
		unit, costs := make([]float64, s.m), make([]float64, s.m)
		unit[s.m/2] = 1
		copy(costs, s.basicCosts())
		v, v2 := make([]float64, s.m), make([]float64, s.m)
		b.Run(fmt.Sprintf("etas=%d/ftran", etas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(v, col)
				s.kern.ftran(v)
			}
		})
		b.Run(fmt.Sprintf("etas=%d/btran", etas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(v, costs)
				s.kern.btran(v)
			}
		})
		b.Run(fmt.Sprintf("etas=%d/btranPair", etas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(v, unit)
				copy(v2, costs)
				s.kern.btranPair(v, v2)
			}
		})
	}
}
