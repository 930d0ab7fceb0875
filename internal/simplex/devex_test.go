package simplex

import (
	"math"
	"math/rand"
	"testing"
)

// randomBoundedLP generates a seeded, always-feasible (x = 0) and bounded
// (boxed variables) LP with mixed cost signs so both pricing rules have
// real work to do.
func randomBoundedLP(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{}
	n := 10
	for j := 0; j < n; j++ {
		ub := 1 + math.Round(rng.Float64()*4)
		p.AddVar(0, ub, math.Round((rng.Float64()-0.5)*20)/2)
	}
	for r := 0; r < 6; r++ {
		var idx []int
		var coef []float64
		var sum float64
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				c := 1 + math.Round(rng.Float64()*6)/2
				idx = append(idx, j)
				coef = append(coef, c)
				sum += c * p.UB[j]
			}
		}
		if len(idx) >= 2 {
			p.AddRow(idx, coef, LE, 0.4*sum)
		}
	}
	return p
}

// TestDevexMatchesDantzigObjective solves a pile of seeded LPs under both
// pricing rules. Pricing changes the pivot sequence, never the optimum:
// statuses must agree and optimal objectives must match to tight tolerance.
func TestDevexMatchesDantzigObjective(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		p := randomBoundedLP(seed)
		dx, err := NewSolver(p, Options{Pricing: PricingDevex})
		if err != nil {
			t.Fatal(err)
		}
		dz, err := NewSolver(p, Options{Pricing: PricingDantzig})
		if err != nil {
			t.Fatal(err)
		}
		rx, rz := dx.Solve(), dz.Solve()
		if rx.Status != rz.Status {
			t.Fatalf("seed %d: devex status %v, dantzig %v", seed, rx.Status, rz.Status)
		}
		if rx.Status != StatusOptimal {
			continue
		}
		if !approx(rx.Obj, rz.Obj, 1e-7*(1+math.Abs(rz.Obj))) {
			t.Errorf("seed %d: devex obj %v, dantzig %v", seed, rx.Obj, rz.Obj)
		}
	}
}

// TestDevexDualReSolveAgreement runs the same bound-churn under both
// pricings through warm dual re-solves; the proved objectives must agree
// at every step.
func TestDevexDualReSolveAgreement(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := randomBoundedLP(seed)
		dx, err := NewSolver(p, Options{Pricing: PricingDevex})
		if err != nil {
			t.Fatal(err)
		}
		dz, err := NewSolver(p, Options{Pricing: PricingDantzig})
		if err != nil {
			t.Fatal(err)
		}
		if rx, rz := dx.Solve(), dz.Solve(); rx.Status != StatusOptimal || rz.Status != StatusOptimal {
			t.Fatalf("seed %d: initial statuses %v/%v", seed, rx.Status, rz.Status)
		}
		rng := rand.New(rand.NewSource(seed * 977))
		for step := 0; step < 8; step++ {
			j := rng.Intn(p.NumVars)
			var lb, ub float64
			if rng.Intn(2) == 0 {
				v := math.Round(rng.Float64() * p.UB[j])
				lb, ub = v, v // fix
			} else {
				lb, ub = 0, p.UB[j] // restore
			}
			dx.SetBound(j, lb, ub)
			dz.SetBound(j, lb, ub)
			rx, rz := dx.ReSolveDual(), dz.ReSolveDual()
			if rx.Status != rz.Status {
				t.Fatalf("seed %d step %d: devex %v, dantzig %v", seed, step, rx.Status, rz.Status)
			}
			if rx.Status == StatusOptimal && !approx(rx.Obj, rz.Obj, 1e-7*(1+math.Abs(rz.Obj))) {
				t.Errorf("seed %d step %d: devex obj %v, dantzig %v", seed, step, rx.Obj, rz.Obj)
			}
		}
	}
}

// TestPricingZeroIsDevex pins the default: the zero Options price with Devex.
func TestPricingZeroIsDevex(t *testing.T) {
	var def Pricing
	if def != PricingDevex {
		t.Error("zero-value Pricing is not Devex; the default contract is broken")
	}
}
