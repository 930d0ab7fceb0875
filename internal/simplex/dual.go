package simplex

import "math"

// SetBound changes the bounds of structural variable j. The typical caller
// is the branch-and-bound solver fixing a binary variable to 0 or 1, or
// restoring its original [0,1] range while backtracking. Call ReSolveDual
// afterwards to restore optimality from the current basis.
func (s *Solver) SetBound(j int, lb, ub float64) {
	s.lb[j], s.ub[j] = lb, ub
	if s.vstat[j] == isBasic {
		return
	}
	// Keep the variable on a still-existing bound; prefer its current side.
	switch s.vstat[j] {
	case nbLower:
		if math.IsInf(lb, -1) {
			if math.IsInf(ub, 1) {
				s.vstat[j] = nbFree
			} else {
				s.vstat[j] = nbUpper
			}
		}
	case nbUpper:
		if math.IsInf(ub, 1) {
			if math.IsInf(lb, -1) {
				s.vstat[j] = nbFree
			} else {
				s.vstat[j] = nbLower
			}
		}
	case nbFree:
		if !math.IsInf(lb, -1) {
			s.vstat[j] = nbLower
		} else if !math.IsInf(ub, 1) {
			s.vstat[j] = nbUpper
		}
	}
}

// Bounds returns the current bounds of structural variable j.
func (s *Solver) Bounds(j int) (lb, ub float64) { return s.lb[j], s.ub[j] }

// ReSolveDual restores optimality after bound changes using the dual
// simplex, starting from the current basis. The basis stays dual feasible
// across bound changes because reduced costs depend only on the basis and
// the (unchanged) costs; at most the changed variables themselves need a
// status flip, which repairDualFeasibility performs for variables with two
// finite bounds.
//
// If the solver has never completed a primal solve, it falls back to Solve.
func (s *Solver) ReSolveDual() *Result {
	if s.pcost == nil {
		return s.Solve()
	}
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
	if s.updates >= s.opt.RefactorEvery/2 || s.kern.refreshDue() {
		if err := s.refactor(); err != nil {
			return s.Solve() // basis unusable; cold restart
		}
	}
	if !s.repairDualFeasibility() {
		// A nonbasic variable with an infinite opposite bound has a
		// wrong-signed reduced cost; the dual start is invalid. Restart.
		return s.Solve()
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
			return s.Solve()
		}
	case StatusInfeasible:
		return &Result{Status: StatusInfeasible, Iters: s.iters}
	case StatusIterLimit:
		return &Result{Status: StatusIterLimit, Iters: s.iters}
	case StatusCanceled:
		return &Result{Status: StatusCanceled, Iters: s.iters}
	}
	// Numerical failure (singular refactorization or a stalled dual pass):
	// a cold two-phase primal solve from a fresh basis is always well
	// defined, so fall back to it rather than reporting unknown.
	return s.Solve()
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
		case nbFree:
			if math.Abs(d) > s.optTol {
				return false
			}
		}
	}
	s.computeXB()
	return true
}

// runDual is the bounded-variable dual simplex loop. It assumes a
// dual-feasible basis and pivots until primal feasibility (optimal), proven
// primal infeasibility (dual unboundedness), or the iteration limit.
func (s *Solver) runDual() Status {
	s.resetDevexWeights()
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
		if s.updates >= s.opt.RefactorEvery || s.kern.refreshDue() {
			if err := s.refactor(); err != nil {
				return StatusUnknown
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
		// sign-eligible candidates.
		rho, y := s.btranPair(leave)
		sigma := -1.0 // below lower bound
		if above {
			sigma = 1.0
		}
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
			eligible := false
			switch st {
			case nbLower:
				eligible = sigma*alpha > 0
			case nbUpper:
				eligible = sigma*alpha < 0
			case nbFree:
				eligible = true
			}
			if !eligible {
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
			// near-zero w[leave] would blast xB with a huge delta. Abort the
			// pass instead — the caller's recovery ladder refactorizes and
			// restarts from a clean basis.
			return StatusUnknown
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
		s.pivot(leave, enter, w)
		s.xB[leave] = enterVal
		s.iters++
	}
}
