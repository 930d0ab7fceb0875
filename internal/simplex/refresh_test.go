package simplex

import (
	"math"
	"math/rand"
	"testing"
)

// KernelProbe forwards to a Solver's LU kernel and counts what the refresh
// rule is made of. It is exported (from a test file) so that the external
// test in refresh_tpcds_test.go, which needs internal/core for its LP, can
// read it.
type KernelProbe struct {
	*luKernel
	Factors, Updates, Solves int
	EtasAtSolve              int   // Σ over solves of the eta count on entry
	DueReports               int   // refreshDue calls that returned true
	walkedAtReset            []int // etaWalked just before each resetUnit
}

// ProbeKernel wraps the solver's kernel in a KernelProbe. (A function, not
// a method: fragvet type-checks test files in a second pass over the
// package, where go/types cannot attach methods to first-pass types.)
func ProbeKernel(s *Solver) *KernelProbe {
	p := &KernelProbe{luKernel: s.kern.(*luKernel)}
	s.kern = p
	return p
}

func (p *KernelProbe) resetUnit(diag []float64) {
	p.walkedAtReset = append(p.walkedAtReset, p.etaWalked)
	p.luKernel.resetUnit(diag)
}

func (p *KernelProbe) factor(basic []int, cols [][]colEntry, pivotTol float64) error {
	p.Factors++
	return p.luKernel.factor(basic, cols, pivotTol)
}

func (p *KernelProbe) solve() {
	p.Solves++
	p.EtasAtSolve += len(p.etaPiv)
}

func (p *KernelProbe) ftran(v []float64)        { p.solve(); p.luKernel.ftran(v) }
func (p *KernelProbe) btran(v []float64)        { p.solve(); p.luKernel.btran(v) }
func (p *KernelProbe) btranPair(a, b []float64) { p.solve(); p.luKernel.btranPair(a, b) }

func (p *KernelProbe) update(r int, w []float64) {
	p.Updates++
	p.luKernel.update(r, w)
}

func (p *KernelProbe) refreshDue() bool {
	due := p.luKernel.refreshDue()
	if due {
		p.DueReports++
	}
	return due
}

// pivotInto absorbs random entering columns into the harness's factored
// basis until n updates were taken, issuing one btran per update so the eta
// file is also walked. It returns the eta nonzeros those solves visited.
func pivotInto(rng *rand.Rand, s *Solver, n int) (walked int) {
	k := s.kern.(*luKernel)
	for updates, tries := 0, 0; updates < n && tries < 50*n; tries++ {
		w := make([]float64, s.m)
		for _, en := range s.cols[rng.Intn(s.n)] {
			w[en.row] = en.val
		}
		walked += len(k.etaVal)
		k.ftran(w)
		r := -1
		for i, off := 0, rng.Intn(s.m); i < s.m && r < 0; i++ {
			if c := (i + off) % s.m; math.Abs(w[c]) > 0.1 {
				r = c
			}
		}
		if r < 0 {
			continue
		}
		k.update(r, w)
		updates++
		walked += len(k.etaVal)
		k.btran(make([]float64, s.m))
	}
	return walked
}

// TestRefreshCounters pins the two sides of the refreshDue balance: what
// factor and resetUnit leave in factorWork, that every solve adds the
// file's nonzeros to etaWalked (a pair sweep once), and that factor,
// resetUnit and a cold restart after an injected refactorization failure
// all zero etaWalked.
func TestRefreshCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := 30
	s := randomKernelHarness(t, rng, m, m+15)
	for r := 0; r < m; r++ {
		s.basic[r] = s.n + r
	}
	k := s.kern.(*luKernel)
	basisNNZ := func(basic []int) int {
		n := 0
		for _, j := range basic {
			n += len(s.cols[j])
		}
		return n
	}
	if err := k.factor(s.basic, s.cols, 1e-10); err != nil {
		t.Fatal(err)
	}
	if want := basisNNZ(s.basic) + m + len(k.lval) + len(k.uval); k.factorWork != want || k.etaWalked != 0 {
		t.Fatalf("after factor: factorWork %d, etaWalked %d, want %d and 0", k.factorWork, k.etaWalked, want)
	}
	if want := pivotInto(rng, s, 8); k.etaWalked != want || want == 0 {
		t.Fatalf("after 8 updates: etaWalked %d, want %d > 0", k.etaWalked, want)
	}
	before := k.etaWalked
	a, b := make([]float64, m), make([]float64, m)
	k.btranPair(a, b)
	if got := k.etaWalked - before; got != len(k.etaVal) {
		t.Fatalf("btranPair walked %d, want the file's %d nonzeros once", got, len(k.etaVal))
	}

	// A failed factor keeps the basis columns it read and has no L+U to add.
	bad := append([]int(nil), s.basic...)
	bad[m-1] = bad[0]
	if err := k.factor(bad, s.cols, 1e-10); err == nil {
		t.Fatal("want error for duplicated basis column")
	}
	if want := basisNNZ(bad) + m; k.factorWork != want || k.etaWalked != 0 {
		t.Fatalf("after a failed factor: factorWork %d, etaWalked %d, want %d and 0", k.factorWork, k.etaWalked, want)
	}

	if err := k.factor(s.basic, s.cols, 1e-10); err != nil {
		t.Fatal(err)
	}
	if pivotInto(rng, s, 5) == 0 {
		t.Fatal("no eta nonzeros walked")
	}
	diag := make([]float64, m)
	for i := range diag {
		diag[i] = 1
	}
	k.resetUnit(diag)
	if k.factorWork != m || k.etaWalked != 0 {
		t.Fatalf("after resetUnit: factorWork %d, etaWalked %d, want %d and 0", k.factorWork, k.etaWalked, m)
	}

	// Cold restart: the third refactorization of a RefactorEvery=2 solve is
	// made to fail behind a file that has been walked, the recovery ladder
	// restarts from the unit basis, and the count must not survive into it.
	ls, err := NewSolver(benchLP(40, 40, 3), Options{RefactorEvery: 2, Fault: &failNthRefactor{n: 3}})
	if err != nil {
		t.Fatal(err)
	}
	p := ProbeKernel(ls)
	res := ls.Solve()
	if res.Status != StatusOptimal || res.Recovery == nil || res.Recovery.Restarts != 1 {
		t.Fatalf("status %v, recovery %+v, want optimal after one restart", res.Status, res.Recovery)
	}
	if len(p.walkedAtReset) != 2 || p.walkedAtReset[1] == 0 {
		t.Fatalf("etaWalked before each resetUnit = %v, want two resets, the restart's behind a walked file", p.walkedAtReset)
	}
}

// failNthRefactor fails exactly the n-th refactorization.
type failNthRefactor struct{ calls, n int }

func (f *failNthRefactor) FailRefactor() bool { f.calls++; return f.calls == f.n }
func (f *failNthRefactor) ForceStall() bool   { return false }

// TestRefreshNeverDueOnEmptyFile is the no-refactor-loop guarantee: however
// many solves run, a kernel that has absorbed no update never asks for a
// refresh — including m = 0, where factorWork is 0 and the bare comparison
// would hold, and m = 1, whose etas have no off-pivot nonzeros at all.
func TestRefreshNeverDueOnEmptyFile(t *testing.T) {
	for _, m := range []int{0, 1, 2, 25} {
		k := newLUKernel(m, 1<<30)
		diag := make([]float64, m)
		for i := range diag {
			diag[i] = 1
		}
		k.resetUnit(diag)
		v, v2 := make([]float64, m), make([]float64, m)
		for i := 0; i < 1000; i++ {
			k.ftran(v)
			k.btran(v)
			k.btranPair(v, v2)
			if k.refreshDue() {
				t.Fatalf("m=%d: refresh due on an empty eta file after %d solves", m, 3*(i+1))
			}
		}
	}
	k := newLUKernel(1, 1<<30)
	k.resetUnit([]float64{1})
	k.update(0, []float64{2})
	v := []float64{1}
	for i := 0; i < 1000; i++ {
		k.btran(v)
	}
	if k.refreshDue() {
		t.Fatal("m=1: refresh due behind etas that hold no off-pivot nonzero")
	}

	// Driven through the solver: an LP without rows and one with a single
	// row finish, and never refactorize on the rule's account.
	for _, rows := range []int{0, 1} {
		p := &Problem{}
		x := p.AddVar(0, 4, -1)
		y := p.AddVar(0, 4, -2)
		if rows == 1 {
			p.AddRow([]int{x, y}, []float64{1, 1}, LE, 5)
		}
		s, err := NewSolver(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		probe := ProbeKernel(s)
		res := s.Solve()
		s.SetBound(y, 0, 1)
		re := s.ReSolveDual()
		if res.Status != StatusOptimal || re.Status != StatusOptimal {
			t.Fatalf("%d rows: solve %v, re-solve %v", rows, res.Status, re.Status)
		}
		if probe.DueReports != 0 || probe.Factors != 0 {
			t.Errorf("%d rows: %d refresh reports, %d factor calls, want none", rows, probe.DueReports, probe.Factors)
		}
	}
}

// TestRefreshHammerUnchanged: under RefactorEvery = 1, the fault injector's
// hammer, the update cap already refactorizes behind every pivot, so the
// work balance never gets to speak and the solver factors exactly once per
// update, as before the rule.
func TestRefreshHammerUnchanged(t *testing.T) {
	p := benchLP(60, 60, 3)
	s, err := NewSolver(p, Options{RefactorEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	probe := ProbeKernel(s)
	res := s.Solve()
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if probe.Updates == 0 || probe.Factors != probe.Updates || probe.DueReports != 0 {
		t.Errorf("%d updates, %d factor calls, %d refresh reports; want one factor per update and no report",
			probe.Updates, probe.Factors, probe.DueReports)
	}
	if probe.EtasAtSolve != 0 {
		t.Errorf("solves saw %d etas in total, want an empty file at every solve", probe.EtasAtSolve)
	}
	ref, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Obj, ref.Obj, 1e-6*(1+math.Abs(ref.Obj))) {
		t.Errorf("objective %g under RefactorEvery=1, %g by default", res.Obj, ref.Obj)
	}
}
