package simplex_test

import (
	"testing"

	"fragalloc/internal/core"
	"fragalloc/internal/model"
	"fragalloc/internal/simplex"
	"fragalloc/internal/tpcds"
)

// TestRefreshCadenceTPCDS solves the root LP of the unclustered TPC-DS row
// (S=1, K=4; the LP of TestSimplexTrajectoryGolden) cold and logs the cadence
// the work balance settles on: updates per refactorization, and the number
// of etas an average solve finds in the file — the steady state that
// BenchmarkKernelSolves measures beside the old 60-update one. Both must lie
// well under the RefactorEvery cap of 120, or the rule is not what bounds
// the file.
func TestRefreshCadenceTPCDS(t *testing.T) {
	w := tpcds.Workload()
	lp, _, err := core.BuildRootLP(w, model.DefaultScenario(w), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := simplex.NewSolver(lp, simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	probe := simplex.ProbeKernel(s)
	if res := s.Solve(); res.Status != simplex.StatusOptimal {
		t.Fatalf("root LP ended %v", res.Status)
	}
	perFactor := float64(probe.Updates) / float64(probe.Factors)
	perSolve := float64(probe.EtasAtSolve) / float64(probe.Solves)
	t.Logf("%d rows: %d updates, %d factor calls (%d on the work balance), %.1f updates per refactorization, %.1f etas in the file at an average solve",
		len(lp.Rows), probe.Updates, probe.Factors, probe.DueReports, perFactor, perSolve)
	if probe.DueReports == 0 {
		t.Error("the work balance never asked for a refresh")
	}
	if perFactor > 60 || perSolve > 60 {
		t.Errorf("%.1f updates per refactorization, %.1f etas per solve: not well under the cap of 120", perFactor, perSolve)
	}
}
