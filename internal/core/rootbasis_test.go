package core

import (
	"math"
	"testing"

	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
	"fragalloc/internal/simplex"
	"fragalloc/internal/tpcds"
)

// rootCase is one golden TPC-DS subproblem, split for its top level.
type rootCase struct {
	name  string
	w     *model.Workload
	ss    *model.ScenarioSet
	k     int
	fixed int
	spec  string
}

func rootCases() []rootCase {
	full := tpcds.Workload()
	sub := tpcdsSubset(30)
	return []rootCase{
		{"tpcds K=8 4+4 F=47 S=3 root", full, scenario.InSample(full, 3, scenario.DefaultP, 1), 8, 47, "4+4"},
		{"tpcds-top30 flat K=4 F=4 S=2", sub, scenario.InSample(sub, 2, scenario.DefaultP, 1), 4, 4, "4"},
	}
}

// rootProblem builds c's subproblem MIP and the dive's root basis on it:
// what subproblem.solve hands mip.Solve.
func rootProblem(tb testing.TB, c rootCase) (*simplex.Problem, []int, *simplex.Basis) {
	tb.Helper()
	spec, err := ParseChunks(c.spec)
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := newRoot(c.w, c.ss, c.k, Options{FixedQueries: c.fixed})
	if err != nil {
		tb.Fatal(err)
	}
	sp.split(spec)
	p, _, intVars := sp.build()
	lp, root, _ := relaxation(p, simplex.Options{}, nil, nil)
	if root == nil {
		tb.Fatalf("%s: the dive's root relaxation failed", c.name)
	}
	return p, intVars, lp.Basis()
}

// solveRootOnly runs mip.Solve to the root relaxation alone: no starts, no
// rounding, one node. Bound is then the root objective and LPIters its
// pivots.
func solveRootOnly(tb testing.TB, p *simplex.Problem, intVars []int, b *simplex.Basis) *mip.Result {
	tb.Helper()
	res, err := mip.Solve(p, intVars, mip.Options{MaxNodes: 1, RootBasis: b})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestRootFromDiveBasis pins the basis handoff on two golden TPC-DS
// subproblems: the MIP root started from the dive's root basis is at the
// cold root's objective in 0 pivots, where the cold root takes hundreds.
func TestRootFromDiveBasis(t *testing.T) {
	for _, c := range rootCases() {
		p, intVars, basis := rootProblem(t, c)
		cold := solveRootOnly(t, p, intVars, nil)
		warm := solveRootOnly(t, p, intVars, basis)
		t.Logf("%s: cold root %d pivots, from basis %d; objective %.12f / %.12f", c.name, cold.LPIters, warm.LPIters, cold.Bound, warm.Bound)
		if cold.Starts != (mip.Starts{}) || warm.Starts != (mip.Starts{Roots: 1}) {
			t.Errorf("%s: starts %+v without a basis and %+v with one, want none and one root from basis", c.name, cold.Starts, warm.Starts)
		}
		if math.Abs(warm.Bound-cold.Bound) > 1e-9*math.Max(1, math.Abs(cold.Bound)) {
			t.Errorf("%s: root from basis at %.12f, cold %.12f", c.name, warm.Bound, cold.Bound)
		}
		if warm.LPIters != 0 {
			t.Errorf("%s: root from basis took %d pivots, want 0 (cold: %d)", c.name, warm.LPIters, cold.LPIters)
		}
	}
}

// BenchmarkRootFromBasis times the subproblem MIP's root relaxation on a
// golden TPC-DS subproblem, solved cold and started from the dive's root
// basis, each with presolve; pivots/op is the root's pivot count.
func BenchmarkRootFromBasis(b *testing.B) {
	c := rootCases()[0]
	p, intVars, basis := rootProblem(b, c)
	for _, run := range []struct {
		name  string
		basis *simplex.Basis
	}{{"cold", nil}, {"from-basis", basis}} {
		b.Run(run.name, func(b *testing.B) {
			iters := 0
			for i := 0; i < b.N; i++ {
				res := solveRootOnly(b, p, intVars, run.basis)
				iters += res.LPIters
			}
			b.ReportMetric(float64(iters)/float64(b.N), "pivots/op")
		})
	}
}

// TestLPItersCountTheDive checks that Result.LPIters counts the dive's LP
// work, not only the branch and bound's: on a golden root under a one-node
// budget, where the MIP root starts from the dive's optimal basis and takes
// no pivots, the run reports at least the pivots of the relaxation solved cold.
func TestLPItersCountTheDive(t *testing.T) {
	c := rootCases()[0]
	spec := mustChunks(t, c.spec)
	sp, err := newRoot(c.w, c.ss, c.k, Options{FixedQueries: c.fixed})
	if err != nil {
		t.Fatal(err)
	}
	sp.split(spec)
	p, _, _ := sp.build()
	_, relax, _ := relaxation(p, simplex.Options{}, nil, nil)
	if relax == nil {
		t.Fatalf("%s: the dive's root relaxation failed", c.name)
	}
	res, err := Allocate(c.w, c.ss, c.k, Options{Chunks: spec, FixedQueries: c.fixed, Parallelism: 1, MIP: mip.Options{MaxNodes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: relaxation %d pivots cold; run %d LP iterations", c.name, relax.Iters, res.LPIters)
	if res.LPIters < relax.Iters {
		t.Errorf("%s: LPIters %d, below the %d pivots of the root's relaxation alone", c.name, res.LPIters, relax.Iters)
	}
}
