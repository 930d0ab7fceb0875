package simplex

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomBasisProblem builds a solver whose column pool contains m slacks
// plus dense-ish random structural columns, so tests can assemble arbitrary
// nonsingular bases from it.
func randomKernelHarness(t *testing.T, rng *rand.Rand, m, extra int) *Solver {
	t.Helper()
	p := &Problem{}
	for j := 0; j < extra; j++ {
		p.AddVar(0, 1, 0)
	}
	for r := 0; r < m; r++ {
		var idx []int
		var coef []float64
		for j := 0; j < extra; j++ {
			if rng.Intn(3) == 0 {
				idx = append(idx, j)
				coef = append(coef, math.Round((rng.Float64()*8-4)*16)/16)
			}
		}
		if idx == nil {
			idx, coef = []int{rng.Intn(extra)}, []float64{1}
		}
		p.AddRow(idx, coef, LE, 1)
	}
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomBasis installs a random nonsingular-looking basis into s: each
// position holds its own slack or a random structural column (each used at
// most once).
func randomBasis(rng *rand.Rand, s *Solver) {
	used := make(map[int]bool)
	for r := 0; r < s.m; r++ {
		s.basic[r] = s.n + r // slack
		if rng.Intn(2) == 0 {
			j := rng.Intn(s.n)
			if !used[j] && len(s.cols[j]) > 0 {
				used[j] = true
				s.basic[r] = j
			}
		}
	}
}

// denseSolveRef solves B x = rhs (ftran) or Bᵀ x = rhs (btran) by dense
// Gaussian elimination, as an oracle for the kernel solves.
func denseSolveRef(s *Solver, rhs []float64, transpose bool) ([]float64, bool) {
	m := s.m
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m+1)
	}
	for c, j := range s.basic {
		for _, e := range s.cols[j] {
			if transpose {
				a[c][e.row] = e.val
			} else {
				a[e.row][c] = e.val
			}
		}
	}
	for i := 0; i < m; i++ {
		a[i][m] = rhs[i]
	}
	for c := 0; c < m; c++ {
		p, best := -1, 1e-12
		for r := c; r < m; r++ {
			if v := math.Abs(a[r][c]); v > best {
				p, best = r, v
			}
		}
		if p < 0 {
			return nil, false
		}
		a[c], a[p] = a[p], a[c]
		piv := a[c][c]
		for k := c; k <= m; k++ {
			a[c][k] /= piv
		}
		for r := 0; r < m; r++ {
			if r == c || a[r][c] == 0 {
				continue
			}
			f := a[r][c]
			for k := c; k <= m; k++ {
				a[r][k] -= f * a[c][k]
			}
		}
	}
	x := make([]float64, m)
	for i := 0; i < m; i++ {
		x[i] = a[i][m]
	}
	return x, true
}

func maxDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// residualFtran returns ‖B·w − rhs‖∞ / (1 + ‖w‖∞): the scaled residual of a
// claimed FTRAN solution w (position-indexed).
func residualFtran(s *Solver, w, rhs []float64) float64 {
	bx := make([]float64, s.m)
	for c, j := range s.basic {
		if w[c] == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			bx[e.row] += e.val * w[c]
		}
	}
	var scale float64 = 1
	for _, v := range w {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	return maxDiff(bx, rhs) / scale
}

// residualBtran returns ‖Bᵀ·y − rhs‖∞ / (1 + ‖y‖∞): the scaled residual of a
// claimed BTRAN solution y (row-indexed); rhs is position-indexed.
func residualBtran(s *Solver, y, rhs []float64) float64 {
	bty := make([]float64, s.m)
	for c, j := range s.basic {
		for _, e := range s.cols[j] {
			bty[c] += e.val * y[e.row]
		}
	}
	var scale float64 = 1
	for _, v := range y {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	return maxDiff(bty, rhs) / scale
}

// TestLUFactorSolveVsDense cross-checks the LU kernel's FTRAN and BTRAN
// (on sparse and on unit right-hand sides) against dense Gaussian
// elimination on random sparse bases of varying size.
func TestLUFactorSolveVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(40)
		s := randomKernelHarness(t, rng, m, m+2+rng.Intn(10))
		randomBasis(rng, s)
		if err := s.kern.factor(s.basic, s.cols, 1e-10); err != nil {
			continue // random basis may be singular; skip
		}
		// Sparse random RHS.
		rhs := make([]float64, m)
		for i := range rhs {
			if rng.Intn(3) == 0 {
				rhs[i] = rng.Float64()*4 - 2
			}
		}
		v := append([]float64(nil), rhs...)
		s.kern.ftran(v)
		if d := residualFtran(s, v, rhs); d > 1e-8 {
			t.Fatalf("trial %d m=%d: ftran residual %g", trial, m, d)
		}
		if want, ok := denseSolveRef(s, rhs, false); ok {
			if d := maxDiff(v, want); d > 1e-4 {
				t.Fatalf("trial %d m=%d: ftran differs from dense oracle by %g", trial, m, d)
			}
		}
		v = append(v[:0], rhs...)
		s.kern.btran(v)
		if d := residualBtran(s, v, rhs); d > 1e-8 {
			t.Fatalf("trial %d m=%d: btran residual %g", trial, m, d)
		}
		// Row r of B⁻¹ = solution of Bᵀ y = e_r.
		r := rng.Intn(m)
		unit := make([]float64, m)
		unit[r] = 1
		rho := append([]float64(nil), unit...)
		s.kern.btran(rho)
		if d := residualBtran(s, rho, unit); d > 1e-8 {
			t.Fatalf("trial %d m=%d: btran(e_%d) residual %g", trial, m, r, d)
		}
	}
}

// TestLUEtaUpdates pivots random entering columns into the basis and checks
// FTRAN/BTRAN with a growing eta file against a fresh dense solve of the
// updated basis.
func TestLUEtaUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		m := 3 + rng.Intn(25)
		s := randomKernelHarness(t, rng, m, m+15)
		// Start from the all-slack basis (trivially factorizable).
		for r := 0; r < m; r++ {
			s.basic[r] = s.n + r
		}
		if err := s.kern.factor(s.basic, s.cols, 1e-10); err != nil {
			t.Fatalf("trial %d: slack basis factor: %v", trial, err)
		}
		inBasis := make(map[int]bool)
		for pivots := 0; pivots < 2+rng.Intn(10); pivots++ {
			e := rng.Intn(s.n)
			if inBasis[e] || len(s.cols[e]) == 0 {
				continue
			}
			w := make([]float64, m)
			for _, en := range s.cols[e] {
				w[en.row] = en.val
			}
			s.kern.ftran(w)
			// Pick a pivot position with a solid pivot element whose current
			// occupant is a slack (so the updated basis stays plausible).
			r := -1
			for i := 0; i < m; i++ {
				if math.Abs(w[i]) > 0.1 && s.basic[i] >= s.n {
					r = i
					break
				}
			}
			if r < 0 {
				continue
			}
			s.kern.update(r, w)
			s.basic[r] = e
			inBasis[e] = true
		}
		rhs := make([]float64, m)
		for i := range rhs {
			if rng.Intn(2) == 0 {
				rhs[i] = rng.Float64()*4 - 2
			}
		}
		v := append([]float64(nil), rhs...)
		s.kern.ftran(v)
		if d := residualFtran(s, v, rhs); d > 1e-6 {
			t.Fatalf("trial %d m=%d: eta ftran residual %g", trial, m, d)
		}
		v = append(v[:0], rhs...)
		s.kern.btran(v)
		if d := residualBtran(s, v, rhs); d > 1e-6 {
			t.Fatalf("trial %d m=%d: eta btran residual %g", trial, m, d)
		}
	}
}

// TestLUSingularBasis verifies the failure mode the recovery ladder relies
// on: factoring a structurally singular basis reports an error rather than
// dividing by zero.
func TestLUSingularBasis(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(0, 1, 0)
	p.AddRow([]int{x}, []float64{1}, EQ, 0)
	p.AddRow([]int{x}, []float64{1}, EQ, 0)
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Basis = {x, x}: duplicate column, singular.
	s.basic[0], s.basic[1] = x, x
	if err := s.kern.factor(s.basic, s.cols, 1e-10); err == nil {
		t.Fatal("want error for a singular basis")
	}
}

// TestLUFailedFactorStaysIndexable reproduces the recovery-path sequence
// that once panicked: a successful factorization, then a failed one whose
// error the caller ignores (primal.go's unbounded re-check and ReSolveDual's
// infeasibility re-check both do), then further solves. The solves may
// return garbage but must not index out of range.
func TestLUFailedFactorStaysIndexable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := 20
	s := randomKernelHarness(t, rng, m, m+10)
	randomBasis(rng, s)
	if err := s.kern.factor(s.basic, s.cols, 1e-10); err != nil {
		t.Skip("singular random basis")
	}
	// Duplicate a column: structurally singular, fails partway through.
	bad := append([]int(nil), s.basic...)
	bad[m-1] = bad[0]
	if err := s.kern.factor(bad, s.cols, 1e-10); err == nil {
		t.Fatal("want error for duplicated basis column")
	}
	v := make([]float64, m)
	for i := range v {
		v[i] = rng.Float64()
	}
	s.kern.ftran(v) // must not panic
	s.kern.btran(v) // must not panic
	clear(v)
	v[3] = 1
	s.kern.btran(v)
	s.kern.update(2, v)
	s.kern.btran(v)
	// And a subsequent successful factorization fully restores the kernel.
	if err := s.kern.factor(s.basic, s.cols, 1e-10); err != nil {
		t.Fatalf("refactor after failure: %v", err)
	}
	rhs := make([]float64, m)
	rhs[1] = 1
	w := append([]float64(nil), rhs...)
	s.kern.ftran(w)
	if d := residualFtran(s, w, rhs); d > 1e-8 {
		t.Fatalf("post-recovery ftran residual %g", d)
	}
}

// TestLUNonzeroBudget verifies the factor-time fill guard.
func TestLUNonzeroBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := 30
	s := randomKernelHarness(t, rng, m, m+10)
	randomBasis(rng, s)
	k := newLUKernel(m, 4) // absurdly small budget
	if err := k.factor(s.basic, s.cols, 1e-10); err == nil {
		t.Fatal("want error when the factorization exceeds the nonzero budget")
	}
}

// TestLUDeterministic re-factors the same basis twice and requires a
// bit-identical factorization: same permutations, same values. PR 1's
// bit-identical-results guarantee rests on this.
func TestLUDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randomKernelHarness(t, rng, 30, 40)
	randomBasis(rng, s)
	k1 := newLUKernel(30, 1<<30)
	k2 := newLUKernel(30, 1<<30)
	if err := k1.factor(s.basic, s.cols, 1e-10); err != nil {
		t.Skip("singular random basis")
	}
	if err := k2.factor(s.basic, s.cols, 1e-10); err != nil {
		t.Fatal(err)
	}
	for i := range k1.rowOf {
		if k1.rowOf[i] != k2.rowOf[i] || k1.colOf[i] != k2.colOf[i] {
			t.Fatalf("permutations differ at step %d", i)
		}
	}
	if len(k1.lval) != len(k2.lval) || len(k1.uval) != len(k2.uval) {
		t.Fatalf("fill differs: L %d vs %d, U %d vs %d", len(k1.lval), len(k2.lval), len(k1.uval), len(k2.uval))
	}
	for i := range k1.lval {
		if k1.lval[i] != k2.lval[i] || k1.lrow[i] != k2.lrow[i] {
			t.Fatalf("L entry %d differs", i)
		}
	}
	for i := range k1.uval {
		if k1.uval[i] != k2.uval[i] || k1.urow[i] != k2.urow[i] {
			t.Fatalf("U entry %d differs", i)
		}
	}
}

// TestBtranPairMatchesBtran is the bit-identity contract of the pair sweep:
// on random sparse bases — freshly factored, behind an eta file of 1 to 120
// updates, and in the "safely indexable" state a failed factorization leaves
// — btranPair(a, b) must equal btran(a) and btran(b) bit for bit, for unit,
// cost-like sparse and dense right-hand sides. runDual relies on it to keep
// every pivot where two separate BTRANs put it.
func TestBtranPairMatchesBtran(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rhs := map[string]func(m int) []float64{
		"unit": func(m int) []float64 {
			v := make([]float64, m)
			v[rng.Intn(m)] = 1
			return v
		},
		"cost": func(m int) []float64 {
			v := make([]float64, m)
			for i := range v {
				if rng.Intn(3) == 0 {
					v[i] = float64(1+rng.Intn(8)) / 4
				}
			}
			return v
		},
		"dense": func(m int) []float64 {
			v := make([]float64, m)
			for i := range v {
				v[i] = rng.Float64()*4 - 2
			}
			return v
		},
	}
	pairs := [][2]string{{"unit", "cost"}, {"dense", "unit"}, {"cost", "dense"}}
	check := func(s *Solver, state string) {
		t.Helper()
		for _, pr := range pairs {
			a, b := rhs[pr[0]](s.m), rhs[pr[1]](s.m)
			wantA, wantB := append([]float64(nil), a...), append([]float64(nil), b...)
			s.kern.btran(wantA)
			s.kern.btran(wantB)
			s.kern.btranPair(a, b)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(wantA[i]) || math.Float64bits(b[i]) != math.Float64bits(wantB[i]) {
					t.Fatalf("%s, m=%d, (%s, %s), row %d: pair (%v, %v), lone (%v, %v)",
						state, s.m, pr[0], pr[1], i, a[i], b[i], wantA[i], wantB[i])
				}
			}
		}
	}
	bases := 0
	for trial := 0; bases < 200; trial++ {
		if trial == 2000 {
			t.Fatalf("only %d of %d random bases were nonsingular", bases, trial)
		}
		m := 4 + rng.Intn(60)
		s := randomKernelHarness(t, rng, m, m+15)
		randomBasis(rng, s)
		if err := s.kern.factor(s.basic, s.cols, 1e-10); err != nil {
			continue
		}
		bases++
		check(s, "fresh factor")
		updates := 1 + rng.Intn(120)
		for u := 1; u <= updates; u++ {
			w := make([]float64, m)
			for _, en := range s.cols[rng.Intn(s.n)] {
				w[en.row] = en.val
			}
			s.kern.ftran(w)
			r := -1
			for i, off := 0, rng.Intn(m); i < m && r < 0; i++ {
				if c := (i + off) % m; math.Abs(w[c]) > 0.1 {
					r = c
				}
			}
			if r < 0 {
				continue
			}
			s.kern.update(r, w)
			if u == updates || u%16 == 1 {
				check(s, fmt.Sprintf("after %d updates", u))
			}
		}
		bad := append([]int(nil), s.basic...)
		bad[m-1] = bad[0]
		if err := s.kern.factor(bad, s.cols, 1e-10); err == nil {
			t.Fatal("want error for duplicated basis column")
		}
		check(s, "after a failed factor")
	}
}
