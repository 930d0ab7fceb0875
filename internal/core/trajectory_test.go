package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fragalloc/internal/model"
	"fragalloc/internal/simplex"
	"fragalloc/internal/tpcds"
)

// TestSimplexTrajectoryGolden pins the simplex pivot trajectory on the root
// LP of the unclustered TPC-DS row (S=1, K=4): a cold two-phase solve, then
// the branch-and-bound move — fix a fractional 0/1 column to 0, dual
// re-solve, restore, dual re-solve — on the first 50 fractional columns.
// The digest covers the status, the iteration count and every bit of X of
// every solve, so a kernel change that reorders one floating-point operation
// anywhere in FTRAN/BTRAN fails here, and so does one that moves a
// refactorization. The digests were recorded in PR 18, with the
// work-balanced refresh (simplex's refreshDue) in place.
func TestSimplexTrajectoryGolden(t *testing.T) {
	w := tpcds.Workload()
	lp, _, err := BuildRootLP(w, model.DefaultScenario(w), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pricing simplex.Pricing
		want    uint64
	}{
		{simplex.PricingDevex, 0x5b1a7c54975fea4b},
		{simplex.PricingDantzig, 0x0f43e313e559edad},
	} {
		h := fnv.New64a()
		record := func(r *simplex.Result) {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(r.Status)<<32|uint64(uint32(r.Iters)))
			h.Write(buf[:])
			for _, x := range r.X {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
		}
		s, err := simplex.NewSolver(lp, simplex.Options{Pricing: c.pricing})
		if err != nil {
			t.Fatal(err)
		}
		root := s.Solve()
		if root.Status != simplex.StatusOptimal {
			t.Fatalf("%v: root LP ended %v", c.pricing, root.Status)
		}
		record(root)
		var cols []int
		for j, x := range root.X {
			if f := x - math.Floor(x); f > 1e-6 && f < 1-1e-6 {
				if lb, ub := s.Bounds(j); lb == 0 && ub == 1 {
					cols = append(cols, j)
				}
			}
			if len(cols) == 50 {
				break
			}
		}
		if len(cols) == 0 {
			t.Fatalf("%v: root LP has no fractional 0/1 column", c.pricing)
		}
		warmIters := 0
		for _, j := range cols {
			for _, ub := range []float64{0, 1} {
				s.SetBound(j, 0, ub)
				r := s.ReSolveDual()
				record(r)
				warmIters += r.Iters
			}
		}
		t.Logf("%v: root LP %d iterations, objective %.6f; %d warm iterations over %d columns", c.pricing, root.Iters, root.Obj, warmIters, len(cols))
		if got := h.Sum64(); got != c.want {
			t.Errorf("%v: trajectory digest %#016x over %d warm columns, want %#016x", c.pricing, got, len(cols), c.want)
		}
	}
}
