package simplex

import (
	"math"
	"math/rand"
	"testing"
)

// randomSparseLP draws a bounded LP of the oracle shape (min cᵀx, Ax ≤ b
// with b ≥ 0, 0 ≤ x ≤ u) with nnzPerRow nonzeros per row, and returns both
// the dense oracle inputs and the sparse Problem.
func randomSparseLP(rng *rand.Rand, n, m, nnzPerRow int) (c []float64, a [][]float64, b, u []float64, p *Problem) {
	c = make([]float64, n)
	u = make([]float64, n)
	p = &Problem{}
	for j := 0; j < n; j++ {
		c[j] = math.Round((rng.Float64()*20-10)*8) / 8
		if rng.Intn(4) == 0 {
			u[j] = math.Inf(1)
		} else {
			u[j] = math.Round(rng.Float64()*80) / 8
		}
		p.AddVar(0, u[j], c[j])
	}
	a = make([][]float64, m)
	b = make([]float64, m)
	for r := 0; r < m; r++ {
		a[r] = make([]float64, n)
		idx := make([]int, 0, nnzPerRow)
		coef := make([]float64, 0, nnzPerRow)
		for t := 0; t < nnzPerRow; t++ {
			j := rng.Intn(n)
			if a[r][j] != 0 {
				continue
			}
			v := math.Round((rng.Float64()*10-3)*8) / 8
			if v == 0 {
				continue
			}
			a[r][j] = v
			idx = append(idx, j)
			coef = append(coef, v)
		}
		if len(idx) == 0 {
			a[r][0] = 1
			idx, coef = append(idx, 0), append(coef, 1)
		}
		b[r] = math.Round(rng.Float64()*12*8) / 8
		p.AddRow(idx, coef, LE, b[r])
	}
	return c, a, b, u, p
}

// TestRandomSparseVsOracle cross-checks the LU-backed solver against the
// naive dense-tableau oracle on sparse bounded LPs an order of magnitude
// larger than the classic TestRandomVsOracle sweep (n,m up to ~80 instead
// of 8) — the regime where the sparse kernel, not the dense fallback logic,
// does all the work.
func TestRandomSparseVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		n := 30 + rng.Intn(50)
		m := 30 + rng.Intn(50)
		c, a, b, u, p := randomSparseLP(rng, n, m, 2+rng.Intn(4))
		want, ok := naiveSolve(c, a, b, u)

		res, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !ok {
			if res.Status != StatusUnbounded {
				t.Fatalf("trial %d: status %v, oracle says unbounded", trial, res.Status)
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, oracle optimal %g", trial, res.Status, want)
		}
		tol := 1e-6 * (1 + math.Abs(want))
		if math.Abs(res.Obj-want) > tol {
			t.Fatalf("trial %d: obj %g, oracle %g", trial, res.Obj, want)
		}
	}
}

// TestHugeSparseBlockDiagonal solves an m=20000 LP — 2.5× the ceiling the
// retired MaxDenseRows guard imposed, and far beyond what the dense inverse
// could hold (20000² floats ≈ 3.2 GB). The problem is block diagonal: 2500
// independent 8-var/8-row LPs, each small enough for the naive oracle, so
// the expected optimum is the exact sum of the per-block optima.
func TestHugeSparseBlockDiagonal(t *testing.T) {
	const blocks = 2500
	const nv, nr = 8, 8
	rng := rand.New(rand.NewSource(77))
	p := &Problem{}
	var want float64
	for bl := 0; bl < blocks; bl++ {
		// Draw blocks until one is bounded (almost all are: b ≥ 0 and mostly
		// finite upper bounds).
		for {
			c, a, b, u, _ := randomSparseLP(rng, nv, nr, 3)
			obj, ok := naiveSolve(c, a, b, u)
			if !ok {
				continue
			}
			want += obj
			base := p.NumVars
			for j := 0; j < nv; j++ {
				p.AddVar(0, u[j], c[j])
			}
			for r := 0; r < nr; r++ {
				var idx []int
				var coef []float64
				for j := 0; j < nv; j++ {
					if a[r][j] != 0 {
						idx = append(idx, base+j)
						coef = append(coef, a[r][j])
					}
				}
				p.AddRow(idx, coef, LE, b[r])
			}
			break
		}
	}
	if got := len(p.Rows); got != blocks*nr {
		t.Fatalf("built %d rows, want %d", got, blocks*nr)
	}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v, want optimal (recovery: %+v)", res.Status, res.Recovery)
	}
	if tol := 1e-6 * (1 + math.Abs(want)); math.Abs(res.Obj-want) > tol {
		t.Fatalf("obj %g, want %g (sum of %d block optima)", res.Obj, want, blocks)
	}
}
