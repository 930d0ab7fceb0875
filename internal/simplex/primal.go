package simplex

import "math"

// runPrimal iterates the bounded-variable primal simplex until optimality,
// unboundedness, or the iteration limit. It assumes a primal-feasible basis
// (as built by initBasis, or restored by a completed dual pass).
//
// Each iteration:
//
//  1. price all nonbasic columns with the simplex multipliers y = c_Bᵀ B⁻¹
//     and select an entering column (Devex or Dantzig per Options.Pricing;
//     Bland's rule after prolonged degenerate stalling, which guarantees
//     termination),
//  2. run the bounded-variable ratio test, which may result in a simple
//     bound flip of the entering variable instead of a basis change,
//  3. pivot and update the product-form basis inverse.
func (s *Solver) runPrimal(phase1 bool) Status {
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
		y := s.btran()

		// Pricing.
		enter := -1
		var enterD, bestScore float64
		for j := 0; j < s.ncols; j++ {
			st := s.vstat[j]
			//fragvet:ignore floatcmp — fixed-variable check: SetBound(j, v, v) stores bit-identical bounds, so exact equality is the invariant
			if st == isBasic || s.lb[j] == s.ub[j] {
				continue
			}
			d := s.reducedCost(j, y)
			eligible := false
			switch st {
			case nbLower:
				eligible = d < -s.optTol
			case nbUpper:
				eligible = d > s.optTol
			case nbFree:
				eligible = math.Abs(d) > s.optTol
			}
			if !eligible {
				continue
			}
			if s.bland {
				enter, enterD = j, d
				break // smallest index wins
			}
			var score float64
			if s.devex() {
				score = d * d / s.pdw[j]
			} else {
				score = math.Abs(d)
			}
			if score > bestScore {
				enter, enterD, bestScore = j, d, score
			}
		}
		if enter == -1 {
			return StatusOptimal
		}

		// Direction of movement of the entering variable.
		sigma := 1.0
		if s.vstat[enter] == nbUpper || (s.vstat[enter] == nbFree && enterD > 0) {
			sigma = -1
		}
		w := s.ftran(enter)

		// Bounded-variable ratio test. The entering variable moves by
		// sigma*t; basic variable in row r changes at rate -sigma*w[r].
		ratioScan := func(pivTol float64) (float64, int, float64) {
			tBest := math.Inf(1)
			if !math.IsInf(s.lb[enter], -1) && !math.IsInf(s.ub[enter], 1) {
				tBest = s.ub[enter] - s.lb[enter] // bound flip allowance
			}
			leave := -1
			var leavePiv float64
			for r := 0; r < s.m; r++ {
				wi := w[r]
				if math.Abs(wi) <= pivTol {
					continue
				}
				bj := s.basic[r]
				rate := -sigma * wi
				var t float64
				if rate > 0 {
					if math.IsInf(s.ub[bj], 1) {
						continue
					}
					t = (s.ub[bj] - s.xB[r]) / rate
				} else {
					if math.IsInf(s.lb[bj], -1) {
						continue
					}
					t = (s.xB[r] - s.lb[bj]) / -rate
				}
				if t < 0 {
					t = 0 // slight bound overshoot from roundoff
				}
				better := t < tBest-1e-12
				if !better && t < tBest+1e-12 && leave >= 0 {
					// Tie-break: prefer larger pivot magnitude for
					// stability; in Bland mode the smallest basic index.
					if s.bland {
						better = bj < s.basic[leave]
					} else {
						better = math.Abs(wi) > math.Abs(leavePiv)
					}
				}
				if better {
					tBest, leave, leavePiv = t, r, wi
				}
			}
			return tBest, leave, leavePiv
		}
		tBest, leave, leavePiv := ratioScan(s.pivotTol)
		if math.IsInf(tBest, 1) {
			// Before declaring the direction unbounded, rule out a limiting
			// row hidden below the pivot tolerance by degenerate
			// cancellation: refactorize, recompute, and rescan with a
			// smaller tolerance.
			if err := s.refactor(); err == nil {
				s.computeXB()
				w = s.ftran(enter)
				tBest, leave, leavePiv = ratioScan(s.pivotTol)
				if math.IsInf(tBest, 1) {
					tBest, leave, leavePiv = ratioScan(s.pivotTol * 1e-3)
				}
			}
		}
		if math.IsInf(tBest, 1) {
			if phase1 {
				// Phase 1 is bounded below; treat as numerical failure.
				return StatusUnknown
			}
			return StatusUnbounded
		}

		// Track degeneracy and enable Bland's anti-cycling rule if stuck.
		if tBest <= 1e-10 {
			s.stall++
			if s.stall > 300 {
				s.bland = true
			}
		} else {
			s.stall = 0
		}

		if leave == -1 {
			// Bound flip: the entering variable jumps to its other bound.
			for r := 0; r < s.m; r++ {
				if w[r] != 0 {
					s.xB[r] -= sigma * tBest * w[r]
				}
			}
			if s.vstat[enter] == nbLower {
				s.vstat[enter] = nbUpper
			} else {
				s.vstat[enter] = nbLower
			}
			s.iters++
			continue
		}

		// Basis change.
		if s.devex() {
			s.updatePrimalDevex(enter, leave, w)
		}
		enterVal := s.nonbasicValue(enter) + sigma*tBest
		for r := 0; r < s.m; r++ {
			if w[r] != 0 {
				s.xB[r] -= sigma * tBest * w[r]
			}
		}
		bj := s.basic[leave]
		if -sigma*leavePiv > 0 {
			s.vstat[bj] = nbUpper
			s.xB[leave] = s.ub[bj] // will be overwritten below
		} else {
			s.vstat[bj] = nbLower
			s.xB[leave] = s.lb[bj]
		}
		s.pivot(leave, enter, w)
		s.xB[leave] = enterVal
		if phase1 && bj >= s.n+s.m {
			// An artificial that leaves the basis is frozen at zero so it
			// can never re-enter.
			s.lb[bj], s.ub[bj] = 0, 0
			s.vstat[bj] = nbLower
		}
		s.iters++
	}
}
