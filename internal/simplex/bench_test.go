package simplex

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Benchmarks of the sparse LU kernel on the three code paths the MIP solver
// exercises hardest: cold solves, warm dual re-solves after bound changes,
// and basis refactorization.

// benchLP draws a feasible bounded sparse LP with m rows and m structural
// variables (~3 nonzeros per row), the shape of the allocation subproblems.
func benchLP(m int) *Problem {
	rng := rand.New(rand.NewSource(int64(m)))
	_, _, _, _, p := randomSparseLP(rng, m, m, 3)
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
		p := benchLP(m)
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
		p := benchLP(m)
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
		p := benchLP(m)
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
				if err := k.factor(s.basic, s.cols, s.opt.PivotTol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
