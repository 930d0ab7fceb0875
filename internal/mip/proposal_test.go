package mip

import (
	"math"
	"testing"

	"fragalloc/internal/simplex"
)

// proposalProblem is min 3a + 2b + x + 1.5y over binaries a, b and
// continuous x, y ∈ [0, 10] subject to a + x ≥ 1, 2b + y ≥ 2, x + y ≤ 3.
// Its optimum is a=0, b=1, x=1, y=0 at objective 3.
func proposalProblem() (*simplex.Problem, []int) {
	p := &simplex.Problem{}
	a := p.AddVar(0, 1, 3)
	b := p.AddVar(0, 1, 2)
	x := p.AddVar(0, 10, 1)
	y := p.AddVar(0, 10, 1.5)
	p.AddRow([]int{a, x}, []float64{1, 1}, simplex.GE, 1)
	p.AddRow([]int{b, y}, []float64{2, 1}, simplex.GE, 2)
	p.AddRow([]int{x, y}, []float64{1, 1}, simplex.LE, 3)
	return p, []int{a, b}
}

// proposalSearch is a search over p with nothing presolved away, ready for
// tryProposal.
func proposalSearch(p *simplex.Problem, intVars []int) *search {
	return &search{opt: Options{}.withDefaults(), p: p, ps: &presolveInfo{}, intVars: intVars, exact: true, skippedBound: math.Inf(1)}
}

// lpCompletion is what tryProposal's LP path computes for integer values
// ints: a fresh solver with the integer columns fixed, re-solved by the dual.
func lpCompletion(t *testing.T, p *simplex.Problem, intVars []int, ints ...float64) *simplex.Result {
	t.Helper()
	h, err := simplex.NewSolver(p, simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range intVars {
		h.SetBound(j, ints[i], ints[i])
	}
	res := h.ReSolveDual()
	if res.Status != simplex.StatusOptimal {
		t.Fatalf("completion LP ended %v", res.Status)
	}
	return res
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCompleteProposalIsPricedWithoutLP: a proposal that is a feasible point
// as it stands becomes the incumbent at its own objective, with no LP solved
// and the heuristic solver never built.
func TestCompleteProposalIsPricedWithoutLP(t *testing.T) {
	p, intVars := proposalProblem()
	s := proposalSearch(p, intVars)
	s.tryProposal([]float64{0, 1, 1, 0})
	if !s.hasInc || s.incObj != 3 {
		t.Fatalf("complete proposal not adopted: hasInc=%v obj=%g, want obj 3", s.hasInc, s.incObj)
	}
	if !sameBits(s.incumbent, []float64{0, 1, 1, 0}) {
		t.Errorf("incumbent %v, want the proposal itself", s.incumbent)
	}
	if s.lpIters != 0 || s.heur != nil {
		t.Errorf("pricing a complete proposal ran an LP: %d iterations, heuristic solver built %v", s.lpIters, s.heur != nil)
	}
}

// TestIntegerOnlyProposalTakesLP: a proposal that sets only the integer
// entries is completed by the LP, and the incumbent is that completion to
// the bit.
func TestIntegerOnlyProposalTakesLP(t *testing.T) {
	p, intVars := proposalProblem()
	s := proposalSearch(p, intVars)
	s.tryProposal([]float64{0, 1, 0, 0})
	want := lpCompletion(t, p, intVars, 0, 1)
	if s.heur == nil || s.lpIters != want.Iters {
		t.Fatalf("integer-only proposal: heuristic solver built %v, %d LP iterations, want the completion's %d", s.heur != nil, s.lpIters, want.Iters)
	}
	if !s.hasInc || math.Float64bits(s.incObj) != math.Float64bits(want.Obj) || !sameBits(s.incumbent, want.X) {
		t.Errorf("incumbent %v obj %g, want the LP completion %v obj %g", s.incumbent, s.incObj, want.X, want.Obj)
	}
}

// TestSlightlyInfeasibleProposalTakesLP: a complete proposal that misses one
// row by 1e-5 — a hundred times the feasibility tolerance — is not priced as
// it stands; the LP completes its integer entries instead.
func TestSlightlyInfeasibleProposalTakesLP(t *testing.T) {
	p, intVars := proposalProblem()
	s := proposalSearch(p, intVars)
	s.tryProposal([]float64{0, 1, 1 - 1e-5, 0}) // a + x ≥ 1 short by 1e-5
	want := lpCompletion(t, p, intVars, 0, 1)
	if s.heur == nil || s.lpIters != want.Iters {
		t.Fatalf("row-violating proposal: heuristic solver built %v, %d LP iterations, want the completion's %d", s.heur != nil, s.lpIters, want.Iters)
	}
	if !s.hasInc || !sameBits(s.incumbent, want.X) {
		t.Errorf("incumbent %v, want the LP completion %v", s.incumbent, want.X)
	}
}

// TestNonImprovingProposalLeavesIncumbent: a complete proposal worse than
// the incumbent changes nothing, and still runs no LP.
func TestNonImprovingProposalLeavesIncumbent(t *testing.T) {
	p, intVars := proposalProblem()
	s := proposalSearch(p, intVars)
	s.tryProposal([]float64{0, 1, 1, 0})
	before := append([]float64(nil), s.incumbent...)
	s.tryProposal([]float64{1, 1, 0, 0}) // feasible, objective 5
	if s.incObj != 3 || !sameBits(s.incumbent, before) {
		t.Errorf("worse proposal replaced the incumbent: %v obj %g", s.incumbent, s.incObj)
	}
	if s.lpIters != 0 || s.heur != nil {
		t.Errorf("a complete worse proposal ran an LP: %d iterations", s.lpIters)
	}
}
