package mip

import (
	"math"
	"math/rand"
	"testing"

	"fragalloc/internal/simplex"
)

// goldenInstance builds a seeded random binary knapsack-with-covering MIP:
// 14 binaries, one knapsack row and up to four covering rows, no continuous
// part — small enough for enumerateBinary to check every assignment.
func goldenInstance(seed int64) (*simplex.Problem, []int) {
	rng := rand.New(rand.NewSource(seed))
	p := &simplex.Problem{}
	n := 14
	var idx []int
	var wts []float64
	for j := 0; j < n; j++ {
		idx = append(idx, p.AddVar(0, 1, -math.Round(rng.Float64()*40)/4))
		wts = append(wts, 1+math.Round(rng.Float64()*12)/4)
	}
	p.AddRow(idx, wts, simplex.LE, 0.31*sumFloats(wts))
	for r := 0; r < 4; r++ {
		var ci []int
		var cc []float64
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				ci = append(ci, j)
				cc = append(cc, 1)
			}
		}
		if len(ci) >= 2 {
			p.AddRow(ci, cc, simplex.GE, 1)
		}
	}
	return p, idx
}

func sumFloats(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}

// enumerateBinary is an oracle that shares no code with the solver: it
// checks every 0/1 assignment of p's variables (all binary) against the rows
// and returns the least objective, or false when no assignment is feasible.
func enumerateBinary(p *simplex.Problem) (float64, bool) {
	best, feasible := math.Inf(1), false
	for mask := 0; mask < 1<<p.NumVars; mask++ {
		ok := true
		for r, row := range p.Rows {
			var lhs float64
			for k, j := range row.Idx {
				if mask>>j&1 == 1 {
					lhs += row.Coef[k]
				}
			}
			switch p.Rel[r] {
			case simplex.LE:
				ok = lhs <= p.RHS[r]+1e-9
			case simplex.GE:
				ok = lhs >= p.RHS[r]-1e-9
			default:
				ok = math.Abs(lhs-p.RHS[r]) <= 1e-9
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		var obj float64
		for j := 0; j < p.NumVars; j++ {
			if mask>>j&1 == 1 {
				obj += p.Obj[j]
			}
		}
		feasible = true
		best = math.Min(best, obj)
	}
	return best, feasible
}

// xhash is an order-sensitive fingerprint of a solution vector; on these
// instances the optima are integral, so it is exact.
func xhash(x []float64) float64 {
	var h float64
	for j, v := range x {
		h += v * float64(j+1)
	}
	return h
}

// matchEnumeration solves the 40 seeded golden instances under opt and
// requires agreement with explicit enumeration on feasibility and, at proven
// optimality, on the objective.
func matchEnumeration(t *testing.T, opt Options) {
	t.Helper()
	for seed := int64(1); seed <= 40; seed++ {
		p, ints := goldenInstance(seed)
		want, feasible := enumerateBinary(p)
		res, err := Solve(p, ints, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !feasible {
			if res.Status != StatusInfeasible {
				t.Errorf("seed %d: status %v, enumeration says infeasible", seed, res.Status)
			}
			continue
		}
		if res.Status != StatusOptimal || math.Abs(res.Obj-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("seed %d: status=%v obj=%v, enumeration optimum %v", seed, res.Status, res.Obj, want)
		}
		if len(res.X) != p.NumVars {
			t.Errorf("seed %d: X length %d, want original NumVars %d", seed, len(res.X), p.NumVars)
		}
	}
}

// TestFeaturesMatchBaseline cross-checks the default search (presolve,
// pseudocost branching, Devex pricing) against explicit enumeration: the
// accelerators may only change how fast the tree collapses, never what it
// proves.
func TestFeaturesMatchBaseline(t *testing.T) {
	matchEnumeration(t, Options{})
}

// TestPerFeatureToggles repeats the cross-check under the one remaining
// search switch, Dantzig pricing — the rule core's dive pins in production.
func TestPerFeatureToggles(t *testing.T) {
	matchEnumeration(t, Options{LP: simplex.Options{Pricing: simplex.PricingDantzig}})
}

// TestFeaturesDeterministic runs the default configuration twice on the
// same instance and requires bit-identical results — the features keep the
// PR 1 determinism contract.
func TestFeaturesDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 17, 41} {
		p, ints := goldenInstance(seed)
		a, err := Solve(p, ints, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(p, ints, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Obj != b.Obj || a.Nodes != b.Nodes || a.LPIters != b.LPIters || xhash(a.X) != xhash(b.X) {
			t.Errorf("seed %d: run 1 (obj=%v nodes=%d iters=%d) != run 2 (obj=%v nodes=%d iters=%d)",
				seed, a.Obj, a.Nodes, a.LPIters, b.Obj, b.Nodes, b.LPIters)
		}
	}
}
