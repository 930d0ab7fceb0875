package simplex

import "math"

// SetBound changes the bounds of structural variable j to lb ≤ ub, both
// finite. The typical caller is the branch-and-bound solver fixing a binary
// variable to 0 or 1, or restoring its original [0,1] range while
// backtracking. A nonbasic variable keeps its side and moves with that
// bound. Call ReSolveDual afterwards to restore optimality from the current
// basis.
func (s *Solver) SetBound(j int, lb, ub float64) {
	s.lb[j], s.ub[j] = lb, ub
}

// Bounds returns the current bounds of structural variable j.
func (s *Solver) Bounds(j int) (lb, ub float64) { return s.lb[j], s.ub[j] }

// ReSolveDual restores optimality after bound changes using the dual
// simplex, starting from the current basis. The basis stays dual feasible
// across bound changes because reduced costs depend only on the basis and
// the (unchanged) costs; at most the changed variables themselves need a
// status flip, which repairDualFeasibility performs: SetBound's bounds are
// finite, so each has a bound to flip to.
//
// A numerical breakdown of the dual pass is repaired in place (runDual's
// refactor and rollback rungs); only what that cannot repair falls back to
// a cold Solve, with its own bland and perturb rungs, as the last rung.
// Result.Recovery records the rungs climbed.
//
// If the solver has never completed a primal solve, it falls back to Solve.
func (s *Solver) ReSolveDual() *Result {
	if s.pcost == nil {
		return s.Solve()
	}
	s.rec = nil
	res := s.reSolveDual()
	res.Recovery = s.rec
	return res
}

// reSolveDual is ReSolveDual on a solver that has a basis to start from.
func (s *Solver) reSolveDual() *Result {
	s.iters = 0
	s.bland = false
	s.stall = 0
	// Restore the true objective: if the previous solve ended during phase
	// 1 (an infeasible node), pcost still holds the phase-1 artificial
	// costs, and pricing with those would terminate at arbitrary points.
	s.pcost = append(s.pcost[:0], s.cost...)
	// The basis factorization stays valid across bound changes (the basis
	// itself is untouched), so refactorize only on accumulated update
	// drift. xB is not recomputed here: repairDualFeasibility does it after
	// settling the nonbasic statuses, and a failed repair discards the
	// state in a cold restart anyway.
	if s.updates >= s.opt.refactorEvery/2 || s.kern.refreshDue() {
		if err := s.refactor(); err != nil {
			return s.cold() // basis unusable; cold restart
		}
	}
	if !s.repairDualFeasibility() {
		// A nonbasic variable with an infinite opposite bound has a
		// wrong-signed reduced cost; the dual start is invalid. Restart.
		return s.cold()
	}
	res := s.runDual()
	if res == StatusInfeasible && s.updates > 0 {
		// An infeasibility claim rests on the alphas of a single basis row;
		// after many product-form updates those can drift. Re-check on a
		// fresh factorization before trusting it.
		if err := s.refactor(); err == nil {
			s.computeXB()
			res = s.runDual()
		}
	}
	switch res {
	case StatusOptimal:
		// Dual feasibility is maintained implicitly during the dual pass;
		// numerical drift across hundreds of degenerate pivots can break it
		// silently, leaving a primal-feasible but suboptimal basis. The
		// primal simplex from here is exact verification: it terminates
		// immediately when the point is truly optimal and repairs it
		// otherwise.
		switch s.runPrimal(false) {
		case StatusOptimal:
			return &Result{Status: StatusOptimal, X: s.extract(), Obj: s.trueObjective(), Iters: s.iters}
		case StatusUnbounded:
			return &Result{Status: StatusUnbounded, Iters: s.iters}
		case StatusIterLimit:
			return &Result{Status: StatusIterLimit, Iters: s.iters}
		case StatusCanceled:
			return &Result{Status: StatusCanceled, Iters: s.iters}
		default:
			return s.cold()
		}
	case StatusInfeasible:
		return &Result{Status: StatusInfeasible, Iters: s.iters}
	case StatusIterLimit:
		return &Result{Status: StatusIterLimit, Iters: s.iters}
	case StatusCanceled:
		return &Result{Status: StatusCanceled, Iters: s.iters}
	}
	// Numerical failure the dual pass could not repair in place: a second
	// failed refactorization after its one rollback, a pivot disagreement
	// on a fresh factorization, or an injected stall. A cold two-phase
	// primal solve from a fresh basis is always well defined, so fall back
	// to it rather than reporting unknown.
	return s.cold()
}

// cold is ReSolveDual's last rung: abandon the warm basis and Solve.
func (s *Solver) cold() *Result {
	s.climb(RungCold)
	return s.solve()
}

// repairDualFeasibility flips nonbasic statuses whose reduced-cost sign
// requirement is violated. It reports false if a violation cannot be
// repaired by a flip (infinite opposite bound).
func (s *Solver) repairDualFeasibility() bool {
	y := s.btran()
	for j := 0; j < s.ncols; j++ {
		st := s.vstat[j]
		//fragvet:ignore floatcmp — fixed-variable check: SetBound(j, v, v) stores bit-identical bounds, so exact equality is the invariant
		if st == isBasic || s.lb[j] == s.ub[j] {
			continue
		}
		d := s.reducedCost(j, y)
		switch st {
		case nbLower:
			if d < -s.optTol {
				if math.IsInf(s.ub[j], 1) {
					return false
				}
				s.vstat[j] = nbUpper
			}
		case nbUpper:
			if d > s.optTol {
				if math.IsInf(s.lb[j], -1) {
					return false
				}
				s.vstat[j] = nbLower
			}
		}
	}
	s.computeXB()
	return true
}

// undoEntry records one dual pivot for rollback: basis row row passed from
// leave, basic before the pivot by definition, to enter, which was nonbasic
// with status enterStat.
type undoEntry struct {
	row, leave, enter int32
	enterStat         int8
}

// dualCand is an entering candidate of the Harris ratio test: an eligible
// column j with its pivot-row entry alpha and reduced cost d.
type dualCand struct {
	j        int
	alpha, d float64
}

// runDual is the bounded-variable dual simplex loop. It assumes a
// dual-feasible basis and pivots until primal feasibility (optimal), proven
// primal infeasibility (dual unboundedness), or the iteration limit.
//
// Two numerical breakdowns are repaired in place. A pivot element that the
// FTRAN column and the pivot row disagree about refactorizes and prices the
// iteration again (rung refactor). A basis that fails to factor, on the
// scheduled refresh or on that refactorization, is rolled back through the
// undo log to the last basis that did — still dual feasible, since bounds
// do not change inside a pass — and the pass finishes from there with the
// Harris ratio test (rung rollback). A pass rolls back at most once; the
// next failure returns StatusUnknown.
func (s *Solver) runDual() Status {
	s.resetDevexWeights()
	s.undo = s.undo[:0]
	refresh := false // rung refactor asked for a factorization
	harris := false  // the pass has rolled back
	for {
		if s.interrupted() {
			return StatusCanceled
		}
		if s.opt.Fault != nil && s.opt.Fault.ForceStall() {
			return StatusUnknown
		}
		if s.iters >= s.opt.MaxIters {
			return StatusIterLimit
		}
		if refresh || s.updates >= s.opt.refactorEvery || s.kern.refreshDue() {
			refresh = false
			if err := s.refactor(); err != nil {
				if harris {
					return StatusUnknown
				}
				harris = true
				s.climb(RungRollback)
				s.undoPivots()
				if err := s.refactor(); err != nil {
					return StatusUnknown
				}
			}
			s.computeXB()
		}

		// Leaving variable: the basic variable with the largest bound
		// violation (Dantzig), or the largest reference-weighted squared
		// violation (Devex), which approximates steepest-edge row selection.
		leave := -1
		var worst float64
		above := false
		if s.devex() {
			var bestScore float64
			for r := 0; r < s.m; r++ {
				bj := s.basic[r]
				v, ab := s.lb[bj]-s.xB[r], false
				if t := s.xB[r] - s.ub[bj]; t > v {
					v, ab = t, true
				}
				if v <= s.feasTol {
					continue
				}
				if score := v * v / s.ddw[r]; score > bestScore {
					bestScore, worst, leave, above = score, v, r, ab
				}
			}
		} else {
			for r := 0; r < s.m; r++ {
				bj := s.basic[r]
				if v := s.lb[bj] - s.xB[r]; v > worst {
					worst, leave, above = v, r, false
				}
				if v := s.xB[r] - s.ub[bj]; v > worst {
					worst, leave, above = v, r, true
				}
			}
		}
		if leave == -1 || worst <= s.feasTol {
			return StatusOptimal
		}

		// Entering variable: bounded-variable dual ratio test. With
		// alpha_j = (B⁻¹)_leave · A_j, a pivot drives the leaving variable
		// to its violated bound while the dual multiplier moves by
		// theta = d_e/alpha_e; dual feasibility of every other nonbasic
		// column is preserved by choosing the minimal |d_j/alpha_j| among
		// sign-eligible candidates. After a rollback the candidates are
		// collected for the Harris test instead (outside Bland's rule,
		// whose tie-break is what guarantees termination).
		rho, y := s.btranPair(leave)
		sigma := -1.0 // below lower bound
		if above {
			sigma = 1.0
		}
		useHarris := harris && !s.bland
		enter := -1
		bestRatio := math.Inf(1)
		var bestAlpha float64
		for j := 0; j < s.ncols; j++ {
			st := s.vstat[j]
			//fragvet:ignore floatcmp — fixed-variable check: SetBound(j, v, v) stores bit-identical bounds, so exact equality is the invariant
			if st == isBasic || s.lb[j] == s.ub[j] {
				continue
			}
			var alpha float64
			for _, e := range s.cols[j] {
				alpha += rho[e.row] * e.val
			}
			if math.Abs(alpha) <= s.pivotTol {
				continue
			}
			// A column at its lower bound can only rise, one at its upper
			// bound only fall.
			if !(st == nbLower && sigma*alpha > 0 || st == nbUpper && sigma*alpha < 0) {
				continue
			}
			if useHarris {
				s.cand = append(s.cand, dualCand{j, alpha, s.reducedCost(j, y)})
				continue
			}
			ratio := math.Abs(s.reducedCost(j, y)) / math.Abs(alpha)
			better := ratio < bestRatio-1e-12
			if !better && ratio < bestRatio+1e-12 && enter >= 0 {
				if s.bland {
					better = j < enter
				} else {
					better = math.Abs(alpha) > math.Abs(bestAlpha)
				}
			}
			if better {
				enter, bestRatio, bestAlpha = j, ratio, alpha
			}
		}
		if useHarris {
			enter, bestRatio = s.harrisEnter()
		}
		if enter == -1 {
			// No column can relieve the violated row: primal infeasible.
			return StatusInfeasible
		}
		if bestRatio <= 1e-12 {
			s.stall++
			if s.stall > 300 {
				s.bland = true
			}
		} else {
			s.stall = 0
		}

		// Pivot: move the leaving variable exactly onto its violated bound.
		bj := s.basic[leave]
		var target float64
		if above {
			target = s.ub[bj]
		} else {
			target = s.lb[bj]
		}
		w := s.ftran(enter)
		if math.Abs(w[leave]) <= s.pivotTol {
			// Entering eligibility was judged on the rho-based alpha, but the
			// pivot divides by the FTRAN column's w[leave]. The two are the
			// same quantity computed through different triangular solves, and
			// after enough eta updates they can disagree; dividing by a
			// near-zero w[leave] would blast xB with a huge delta. Refactorize
			// and price this iteration again on the fresh factors. On a fresh
			// factorization there is no eta file to blame: abort the pass, and
			// ReSolveDual restarts cold.
			if s.updates == 0 {
				return StatusUnknown
			}
			s.climb(RungRefactor)
			refresh = true
			continue
		}
		if s.devex() {
			s.updateDualDevex(leave, w)
		}
		delta := (s.xB[leave] - target) / w[leave]
		enterVal := s.nonbasicValue(enter) + delta
		for r := 0; r < s.m; r++ {
			if w[r] != 0 {
				s.xB[r] -= w[r] * delta
			}
		}
		if above {
			s.vstat[bj] = nbUpper
		} else {
			s.vstat[bj] = nbLower
		}
		s.undo = append(s.undo, undoEntry{int32(leave), int32(bj), int32(enter), s.vstat[enter]})
		s.pivot(leave, enter, w)
		s.xB[leave] = enterVal
		s.iters++
	}
}

// undoPivots takes back the pivots in the undo log, newest first, which
// returns the basis and the statuses of the variables they moved to the
// last basis that factored, or to the one the pass began from. The eta
// file no longer describes that basis; the caller refactorizes it.
func (s *Solver) undoPivots() {
	for i := len(s.undo) - 1; i >= 0; i-- {
		u := s.undo[i]
		s.basic[u.row] = int(u.leave)
		s.basisRow[u.leave] = int(u.row)
		s.vstat[u.leave] = isBasic
		s.basisRow[u.enter] = -1
		s.vstat[u.enter] = u.enterStat
	}
	s.undo = s.undo[:0]
}

// harrisEnter is the two-pass ratio test of Harris (1973) over the
// candidates in s.cand. Pass 1 bounds the step by the smallest ratio with
// every reduced cost relaxed by optTol; pass 2 takes, among the candidates
// whose exact ratio is within that bound, the one with the largest |alpha|
// (the smallest index on ties). It trades a dual infeasibility below optTol
// for the largest pivot element on offer, which is what a basis that just
// failed to factor needs. It returns the entering column and its ratio, or
// -1 when there is no candidate, and empties s.cand for the next iteration.
func (s *Solver) harrisEnter() (enter int, ratio float64) {
	bound := math.Inf(1)
	for _, c := range s.cand {
		if r := (math.Abs(c.d) + s.optTol) / math.Abs(c.alpha); r < bound {
			bound = r
		}
	}
	enter = -1
	var best float64
	for _, c := range s.cand {
		if r := math.Abs(c.d) / math.Abs(c.alpha); r <= bound && math.Abs(c.alpha) > best {
			enter, ratio, best = c.j, r, math.Abs(c.alpha)
		}
	}
	s.cand = s.cand[:0]
	return enter, ratio
}
