package simplex

import (
	"fmt"
	"math"
)

// Variable status codes. Nonbasic variables sit at a bound (or at zero for
// free variables); basic variables carry their value in xB.
const (
	nbLower int8 = iota // nonbasic at lower bound
	nbUpper             // nonbasic at upper bound
	nbFree              // nonbasic free variable, value 0
	isBasic
)

type colEntry struct {
	row int
	val float64
}

// Solver holds the computational form of a problem plus the current basis.
// It supports a cold-start two-phase primal solve and warm-started dual
// re-solves after bound changes (see SetBound and ReSolveDual), which is how
// the MIP branch-and-bound explores its tree.
type Solver struct {
	opt Options
	// The tolerances in force: the package constants, except during the
	// recovery ladder's perturbed restart.
	feasTol, optTol, pivotTol float64

	m, n  int // constraint and structural variable counts
	ncols int // n structurals + m slacks + artificials

	cols  [][]colEntry // sparse columns, including slacks and artificials
	cost  []float64    // phase-2 (true) objective per column
	pcost []float64    // active-phase objective per column
	lb    []float64
	ub    []float64
	rhs   []float64

	basic    []int // basic[r] = column basic in row r
	basisRow []int // basisRow[j] = row of basic column j, or -1
	vstat    []int8
	xB       []float64
	kern     basisKernel // factorized basis (sparse LU + eta file; see lu.go)
	updates  int         // eta-file updates since last refactorization

	iters      int
	bland      bool // anti-cycling mode
	stall      int  // consecutive degenerate pivots
	forceBland bool // recovery ladder: start every pass in Bland's rule

	pdw []float64 // primal Devex reference weights, per column (see devex.go)
	ddw []float64 // dual Devex reference weights, per basis row

	// scratch buffers
	y, w, rho, tmpRHS []float64
}

// NewSolver builds the computational form for p. The problem data is copied;
// p may be reused or mutated afterwards.
func NewSolver(p *Problem, opt Options) (*Solver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, n := len(p.Rows), p.NumVars
	if limit := opt.withDefaults(m, n).MaxFactorNonzeros; problemNonzeros(p) > limit {
		return nil, fmt.Errorf("simplex: %d constraint nonzeros exceed the factorization budget %d; reduce the model (e.g. via partial clustering) or raise Options.MaxFactorNonzeros", problemNonzeros(p), limit)
	}
	s := &Solver{
		opt:   opt.withDefaults(m, n),
		m:     m,
		n:     n,
		ncols: n + m,
		cols:  make([][]colEntry, n+m),
		cost:  make([]float64, n+m),
		lb:    make([]float64, n+m),
		ub:    make([]float64, n+m),
		rhs:   append([]float64(nil), p.RHS...),
		vstat: make([]int8, n+m),
		basic: make([]int, m),
		xB:    make([]float64, m),
	}
	s.feasTol, s.optTol, s.pivotTol = feasTol, optTol, pivotTol
	s.basisRow = make([]int, n+m)
	copy(s.cost, p.Obj)
	copy(s.lb, p.LB)
	copy(s.ub, p.UB)
	// Structural columns, gathered row-wise then transposed to column-major.
	counts := make([]int, n)
	for _, row := range p.Rows {
		for _, j := range row.Idx {
			counts[j]++
		}
	}
	for j := 0; j < n; j++ {
		s.cols[j] = make([]colEntry, 0, counts[j])
	}
	for r, row := range p.Rows {
		for t, j := range row.Idx {
			if row.Coef[t] != 0 {
				s.cols[j] = append(s.cols[j], colEntry{row: r, val: row.Coef[t]})
			}
		}
	}
	// Slack columns: row·x + slack = b with slack bounds by relation.
	for r := 0; r < m; r++ {
		j := n + r
		s.cols[j] = []colEntry{{row: r, val: 1}}
		switch p.Rel[r] {
		case LE:
			s.lb[j], s.ub[j] = 0, math.Inf(1)
		case GE:
			s.lb[j], s.ub[j] = math.Inf(-1), 0
		case EQ:
			s.lb[j], s.ub[j] = 0, 0
		default:
			return nil, fmt.Errorf("simplex: row %d has invalid relation %d", r, int(p.Rel[r]))
		}
	}
	s.y = make([]float64, m)
	s.w = make([]float64, m)
	s.rho = make([]float64, m)
	s.tmpRHS = make([]float64, m)
	s.kern = newLUKernel(m, s.opt.MaxFactorNonzeros)
	return s, nil
}

// problemNonzeros counts the constraint-matrix nonzeros of p including the
// m slack columns — the floor on any basis factorization's size.
func problemNonzeros(p *Problem) int {
	nnz := len(p.Rows)
	for _, row := range p.Rows {
		nnz += len(row.Idx)
	}
	return nnz
}

// nonbasicValue returns the current value of nonbasic column j.
func (s *Solver) nonbasicValue(j int) float64 {
	switch s.vstat[j] {
	case nbLower:
		return s.lb[j]
	case nbUpper:
		return s.ub[j]
	default: // nbFree
		return 0
	}
}

// initialStatus places column j at its most natural nonbasic position: the
// finite bound closest to zero, or free at zero.
func (s *Solver) initialStatus(j int) int8 {
	lf, uf := !math.IsInf(s.lb[j], -1), !math.IsInf(s.ub[j], 1)
	switch {
	case lf && uf:
		if math.Abs(s.ub[j]) < math.Abs(s.lb[j]) {
			return nbUpper
		}
		return nbLower
	case lf:
		return nbLower
	case uf:
		return nbUpper
	default:
		return nbFree
	}
}

// initBasis builds the starting basis: every slack whose required value fits
// its bounds becomes basic; rows whose slack cannot absorb the residual get
// an artificial variable (phase-1 cost 1) instead. After this the basis is
// primal feasible by construction, possibly via artificials.
//
// It returns the number of artificial columns added.
func (s *Solver) initBasis() int {
	// Place structurals (and provisionally slacks) nonbasic.
	for j := 0; j < s.ncols; j++ {
		s.vstat[j] = s.initialStatus(j)
		s.basisRow[j] = -1
	}
	// Row residuals with all structurals at their nonbasic values.
	res := s.tmpRHS
	copy(res, s.rhs)
	for j := 0; j < s.n; j++ {
		if v := s.nonbasicValue(j); v != 0 {
			for _, e := range s.cols[j] {
				res[e.row] -= e.val * v
			}
		}
	}
	nart := 0
	for r := 0; r < s.m; r++ {
		sl := s.n + r
		v := res[r]
		if v >= s.lb[sl]-s.feasTol && v <= s.ub[sl]+s.feasTol {
			// Slack absorbs the residual: basic and feasible.
			s.vstat[sl] = isBasic
			s.basic[r] = sl
			s.basisRow[sl] = r
			s.xB[r] = v
			continue
		}
		// Clamp slack to its nearest bound and cover the rest with an
		// artificial of matching sign so its value is non-negative.
		if v < s.lb[sl] {
			s.vstat[sl] = nbLower
		} else {
			s.vstat[sl] = nbUpper
		}
		gap := v - s.nonbasicValue(sl)
		sign := 1.0
		if gap < 0 {
			sign = -1.0
			gap = -gap
		}
		aj := s.addArtificial(r, sign)
		s.basic[r] = aj
		s.basisRow[aj] = r
		s.vstat[aj] = isBasic
		s.xB[r] = gap
		nart++
	}
	s.resetBasisKernel()
	return nart
}

// addArtificial appends an artificial column (±1 in row r, bounds [0,∞),
// true cost 0) and returns its index.
func (s *Solver) addArtificial(r int, sign float64) int {
	j := s.ncols
	s.ncols++
	s.cols = append(s.cols, []colEntry{{row: r, val: sign}})
	s.cost = append(s.cost, 0)
	s.lb = append(s.lb, 0)
	s.ub = append(s.ub, math.Inf(1))
	s.vstat = append(s.vstat, nbLower)
	s.basisRow = append(s.basisRow, -1)
	return j
}

// resetBasisKernel reinstalls the factorization for a basis whose matrix
// columns are signed units (the initial slack/artificial basis).
func (s *Solver) resetBasisKernel() {
	diag := s.rho // scratch; copied by the kernel
	for r := 0; r < s.m; r++ {
		// The basic column in row r is a unit column ±1 in row r.
		diag[r] = s.cols[s.basic[r]][0].val
	}
	s.kern.resetUnit(diag)
	s.updates = 0
}

// ftran computes w = B⁻¹ · A_j into s.w and returns it. The buffer is owned
// by the Solver and overwritten by the next ftran call; callers must not
// retain it across kernel operations.
func (s *Solver) ftran(j int) []float64 {
	w := s.w
	clear(w)
	for _, e := range s.cols[j] {
		w[e.row] = e.val
	}
	s.kern.ftran(w)
	return w
}

// basicCosts loads the active-phase costs of the basic columns into s.y,
// the right-hand side of the BTRAN that prices them out.
func (s *Solver) basicCosts() []float64 {
	y := s.y
	clear(y)
	for r, j := range s.basic {
		if cb := s.pcost[j]; cb != 0 {
			y[r] = cb
		}
	}
	return y
}

// unitRow loads the unit vector e_r into s.rho, the right-hand side of the
// BTRAN that yields row r of B⁻¹.
func (s *Solver) unitRow(r int) []float64 {
	rho := s.rho
	clear(rho)
	rho[r] = 1
	return rho
}

// btran computes y = (pcost_B)ᵀ · B⁻¹ into s.y and returns it. The buffer
// is owned by the Solver, like s.w for ftran.
func (s *Solver) btran() []float64 {
	y := s.basicCosts()
	s.kern.btran(y)
	return y
}

// binvRow computes row r of B⁻¹ (a unit-vector BTRAN) into s.rho and
// returns it. The buffer is owned by the Solver, like s.w for ftran.
func (s *Solver) binvRow(r int) []float64 {
	rho := s.unitRow(r)
	s.kern.btran(rho)
	return rho
}

// btranPair computes binvRow(r) and btran() — the pivot row and the duals a
// dual-simplex iteration prices with — in one sweep over the factorization.
func (s *Solver) btranPair(r int) (rho, y []float64) {
	rho, y = s.unitRow(r), s.basicCosts()
	s.kern.btranPair(rho, y)
	return rho, y
}

// reducedCost returns c_j − y·A_j for the active phase cost.
func (s *Solver) reducedCost(j int, y []float64) float64 {
	d := s.pcost[j]
	for _, e := range s.cols[j] {
		d -= y[e.row] * e.val
	}
	return d
}

// computeXB recomputes the basic values xB = B⁻¹(b − N·x_N) from scratch.
func (s *Solver) computeXB() {
	res := s.tmpRHS
	copy(res, s.rhs)
	for j := 0; j < s.ncols; j++ {
		if s.vstat[j] == isBasic {
			continue
		}
		if v := s.nonbasicValue(j); v != 0 {
			for _, e := range s.cols[j] {
				res[e.row] -= e.val * v
			}
		}
	}
	s.kern.ftran(res)
	copy(s.xB, res)
}

// interrupted reports whether the caller's cancellation hook has fired.
func (s *Solver) interrupted() bool {
	return s.opt.Canceled != nil && s.opt.Canceled()
}

// refactor rebuilds the basis factorization from scratch, discarding the
// accumulated eta file. It returns an error if the basis matrix is
// numerically singular or the factorization exceeds the nonzero budget.
func (s *Solver) refactor() error {
	if s.opt.Fault != nil && s.opt.Fault.FailRefactor() {
		return fmt.Errorf("simplex: injected refactorization failure")
	}
	if err := s.kern.factor(s.basic, s.cols, s.pivotTol); err != nil {
		return err
	}
	s.updates = 0
	// A fresh factorization discards the eta file the Devex weights were
	// accumulated against; restart the reference framework with it.
	s.resetDevexWeights()
	return nil
}

// pivot replaces the basic variable of row r with entering column e, whose
// ftran column is w (already computed). It appends an eta update to the
// kernel and maintains the status bookkeeping; xB must be updated by the
// caller beforehand.
func (s *Solver) pivot(r, e int, w []float64) {
	s.kern.update(r, w)
	s.basisRow[s.basic[r]] = -1
	s.basic[r] = e
	s.basisRow[e] = r
	s.vstat[e] = isBasic
	s.updates++
}

// objective returns the active-phase objective at the current point.
func (s *Solver) objective() float64 {
	var obj float64
	for j := 0; j < s.ncols; j++ {
		if s.pcost[j] == 0 {
			continue
		}
		obj += s.pcost[j] * s.value(j)
	}
	return obj
}

// value returns the current value of any column.
func (s *Solver) value(j int) float64 {
	if s.vstat[j] == isBasic {
		return s.xB[s.basisRow[j]]
	}
	return s.nonbasicValue(j)
}

// extract builds the structural solution vector.
func (s *Solver) extract() []float64 {
	x := make([]float64, s.n)
	for j := 0; j < s.n; j++ {
		if s.vstat[j] != isBasic {
			x[j] = s.nonbasicValue(j)
		}
	}
	for r, j := range s.basic {
		if j < s.n {
			x[j] = s.xB[r]
		}
	}
	return x
}

// trueObjective returns cᵀx for the true (phase-2) costs.
func (s *Solver) trueObjective() float64 {
	var obj float64
	for j := 0; j < s.n; j++ {
		if s.cost[j] == 0 {
			continue
		}
		obj += s.cost[j] * s.value(j)
	}
	return obj
}

// Solve runs the two-phase primal simplex from a fresh slack/artificial
// basis and returns the result. When an attempt fails numerically
// (StatusUnknown from a singular refactorization or a stalled pass) it
// climbs a recovery ladder instead of giving up: restart with Bland's
// rule forced from the first pivot, then restart again with perturbed
// tolerances. Each restart is recorded in Result.Recovery; only if every
// rung fails does the caller see StatusUnknown.
func (s *Solver) Solve() *Result {
	res := s.solveAttempt()
	if res.Status != StatusUnknown {
		return res
	}
	rec := &Recovery{}
	restart := func(rung string) *Result {
		rec.Restarts++
		rec.Rungs = append(rec.Rungs, rung)
		return s.solveAttempt()
	}
	s.forceBland = true
	res = restart(RungBland)
	if res.Status == StatusUnknown {
		s.pivotTol *= 1e-2
		s.feasTol *= 100
		s.optTol *= 100
		res = restart(RungPerturb)
		s.pivotTol, s.feasTol, s.optTol = pivotTol, feasTol, optTol
	}
	s.forceBland = false
	res.Recovery = rec
	return res
}

// solveAttempt is one cold-start two-phase primal pass.
func (s *Solver) solveAttempt() *Result {
	s.iters = 0
	s.bland = s.forceBland
	s.stall = 0
	nart := s.initBasis()
	// One cost buffer serves both phases and every later attempt; it is
	// replaced only when initBasis extended ncols with new artificials.
	if len(s.pcost) < s.ncols {
		s.pcost = make([]float64, s.ncols)
	}
	if nart > 0 {
		// Phase 1: minimize the sum of artificials.
		clear(s.pcost)
		for j := s.n + s.m; j < s.ncols; j++ {
			s.pcost[j] = 1
		}
		res := s.runPrimal(true)
		if res != StatusOptimal {
			if res == StatusIterLimit || res == StatusCanceled {
				return &Result{Status: res, Iters: s.iters}
			}
			// Phase 1 is bounded below by 0, so non-optimal here means
			// numerical failure; report as unknown.
			return &Result{Status: StatusUnknown, Iters: s.iters}
		}
		if s.objective() > 1e-6 {
			return &Result{Status: StatusInfeasible, Iters: s.iters}
		}
		// Freeze artificials at zero so they can never re-enter.
		for j := s.n + s.m; j < s.ncols; j++ {
			s.lb[j], s.ub[j] = 0, 0
		}
	}
	// Phase 2: true objective.
	copy(s.pcost, s.cost)
	s.bland = s.forceBland
	s.stall = 0
	res := s.runPrimal(false)
	switch res {
	case StatusOptimal:
		return &Result{Status: StatusOptimal, X: s.extract(), Obj: s.trueObjective(), Iters: s.iters}
	case StatusUnbounded:
		return &Result{Status: StatusUnbounded, Iters: s.iters}
	case StatusIterLimit:
		return &Result{Status: StatusIterLimit, Iters: s.iters}
	case StatusCanceled:
		return &Result{Status: StatusCanceled, Iters: s.iters}
	}
	return &Result{Status: StatusUnknown, Iters: s.iters}
}
