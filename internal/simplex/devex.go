package simplex

// Devex pricing (Harris 1973) for both simplex loops. Dantzig pricing picks
// the candidate with the largest reduced cost (primal) or bound violation
// (dual), which on the long trim/routing LPs of the fragment-allocation
// model walks through chains of near-degenerate pivots. Devex instead scores
// candidates against reference weights that approximate the steepest-edge
// norms ‖B⁻¹·A_j‖ — the objective change per unit of *edge length*, not per
// unit of the entering variable — and maintains those weights with the
// vectors each pivot computes anyway:
//
//   - primal: weight γ_j per column, score d_j²/γ_j. The update needs the
//     pivot row α_j = (B⁻¹)_r·A_j over the nonbasic columns, one extra
//     unit-vector BTRAN (binvRow) plus a column sweep per basis change.
//   - dual: weight γ_r per basis row, score viol_r²/γ_r. The update reuses
//     the FTRAN column w = B⁻¹·A_e the pivot already computed, so dual Devex
//     — the hot loop of branch-and-bound re-solves — is nearly free.
//
// The weights are a *reference framework*: they start at 1 (where Devex
// coincides with Dantzig) and only ever grow as pivots accumulate evidence.
// The framework is reset to 1 on every refactorization (a fresh basis
// invalidates the accumulated geometry along with the eta file), at the
// start of every primal/dual pass, and whenever a weight outgrows
// devexResetWeight (the classic guard against unbounded weight drift).
// Every rule is pure deterministic arithmetic with smallest-index
// tie-breaking, so the PR 1 bit-identical-results guarantee carries over.
// Bland's anti-cycling mode bypasses the weights entirely, preserving the
// recovery ladder's termination guarantee.

// Pricing selects the pivot-pricing rule for both the primal and the dual
// simplex loop.
type Pricing int

const (
	// PricingDevex is the default: reference-framework Devex pricing in
	// both loops.
	PricingDevex Pricing = iota
	// PricingDantzig restores the pre-Devex baseline — largest reduced
	// cost (primal) and largest bound violation (dual) — bit-identically.
	// The decomposition's dive solves with it, and tests and benchmarks
	// compare against it.
	PricingDantzig
)

// devexResetWeight bounds the reference weights: once a weight passes it the
// framework has drifted far from the reference basis and is reset wholesale.
const devexResetWeight = 1e10

// devex reports whether the current pass prices with Devex weights. Bland's
// rule overrides pricing entirely (its termination proof needs the smallest-
// index rule, not a weighted score).
func (s *Solver) devex() bool {
	return s.opt.Pricing == PricingDevex && !s.bland
}

// resetDevexWeights (re)initializes both reference frameworks to 1. Sizing
// happens here rather than in NewSolver because phase 1 may have appended
// artificial columns since the last pass.
func (s *Solver) resetDevexWeights() {
	if s.opt.Pricing != PricingDevex {
		return
	}
	if len(s.pdw) < s.ncols {
		s.pdw = make([]float64, s.ncols)
	}
	for j := range s.pdw {
		s.pdw[j] = 1
	}
	if len(s.ddw) < s.m {
		s.ddw = make([]float64, s.m)
	}
	for r := range s.ddw {
		s.ddw[r] = 1
	}
}

// updatePrimalDevex maintains the primal reference weights across the pivot
// (enter ↔ basic variable of row leave). It must run before the kernel
// update: the pivot row is taken from the pre-pivot basis inverse. w is the
// FTRAN column of the entering variable (w[leave] is the pivot element).
func (s *Solver) updatePrimalDevex(enter, leave int, w []float64) {
	piv := w[leave]
	if piv == 0 {
		return
	}
	ge := s.pdw[enter]
	if ge > devexResetWeight {
		s.resetDevexWeights()
		return
	}
	rho := s.binvRow(leave)
	scale := ge / (piv * piv)
	for j := 0; j < s.ncols; j++ {
		if s.vstat[j] == isBasic || j == enter {
			continue
		}
		var alpha float64
		for _, e := range s.cols[j] {
			alpha += rho[e.row] * e.val
		}
		if alpha == 0 {
			continue
		}
		if cand := alpha * alpha * scale; cand > s.pdw[j] {
			s.pdw[j] = cand
		}
	}
	// The leaving variable re-enters the nonbasic set with the weight its
	// edge just exhibited, floored at the reference weight 1.
	gl := 1 / (piv * piv)
	if gl < 1 {
		gl = 1
	}
	s.pdw[s.basic[leave]] = gl
}

// updateDualDevex maintains the dual reference weights across the pivot that
// replaces the basic variable of row leave with the entering column whose
// FTRAN column is w. Called before xB is updated; only w and the weights are
// read.
func (s *Solver) updateDualDevex(leave int, w []float64) {
	piv := w[leave]
	if piv == 0 {
		return
	}
	gr := s.ddw[leave] / (piv * piv)
	if gr < 1 {
		gr = 1
	}
	if gr > devexResetWeight {
		s.resetDevexWeights()
		return
	}
	for r := 0; r < s.m; r++ {
		if r == leave || w[r] == 0 {
			continue
		}
		t := w[r] / piv
		if cand := t * t * gr; cand > s.ddw[r] {
			s.ddw[r] = cand
		}
	}
	s.ddw[leave] = gr
}
