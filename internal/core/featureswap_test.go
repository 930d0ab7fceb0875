package core

import (
	"testing"

	"fragalloc/internal/mip"
	"fragalloc/internal/scenario"
	"fragalloc/internal/simplex"
)

// TestFeatureSwapRegression cross-checks the full allocation pipeline
// across the one search switch production code flips (the dive pins
// PricingDantzig). The pricing rule changes the pivot order and with it the
// branching trajectory, but on the clustered row partial clustering plus a
// tight 1e-6 gap make the subproblems small enough to prove to (near-)true
// optimality, so both trajectories must land on the *same* optimum: W and V
// agree bit-identically, and with the values recorded at e118db2 (where the
// search without presolve and pseudocost branching proved them too) — a
// presolve or pseudocost bug that moves a proven optimum fails here.
func TestFeatureSwapRegression(t *testing.T) {
	t.Run("tpcds-cluster", func(t *testing.T) {
		const wantW, wantV = 1907412899.0, 1339120405.0
		w := tpcdsSubset(16)
		seen := scenario.InSample(w, 2, scenario.DefaultP, 1)
		spec, err := ParseChunks("2+2")
		if err != nil {
			t.Fatal(err)
		}
		for _, pricing := range []simplex.Pricing{simplex.PricingDevex, simplex.PricingDantzig} {
			res, err := Allocate(w, seen, 4, Options{
				Chunks: spec, Parallelism: 2, FixedQueries: 8,
				MIP: mip.Options{RelGap: 1e-6, LP: simplex.Options{Pricing: pricing}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exact {
				t.Fatalf("%v: want a proven optimum, got exact=false gap=%g", pricing, res.MaxGap)
			}
			if res.W != wantW || res.V != wantV {
				t.Errorf("%v: proven optimum moved: W=%v V=%v, want W=%v V=%v", pricing, res.W, res.V, wantW, wantV)
			}
		}
	})
}
