package simplex

import (
	"errors"
	"fmt"
	"math"
)

// BasisStatus is one variable's place in a Basis: basic, or nonbasic at its
// lower or at its upper bound.
type BasisStatus int8

// The basis statuses. They share their values with the solver's own status
// codes, so a Basis is read out and installed by conversion.
const (
	AtLower BasisStatus = BasisStatus(nbLower)
	AtUpper BasisStatus = BasisStatus(nbUpper)
	Basic   BasisStatus = BasisStatus(isBasic)
)

// Basis is a simplex basis as a value: one status per structural column and
// one per row slack. The slack of row r is b_r − row_r·x, so it lies in
// [0, ∞) for an LE row, (−∞, 0] for a GE row and [0, 0] for an EQ row, and
// a row whose slack is nonbasic is tight. A Basis taken from one solver
// (Solver.Basis) starts another on a problem of the same shape
// (Solver.SolveFrom); it refers to no solver state and may be edited.
type Basis struct {
	Cols []BasisStatus // one per structural column
	Rows []BasisStatus // one per row slack
}

// Basis returns the solver's current basis; after an optimal solve, the
// optimal one. An artificial variable still basic after phase 1 sits at
// zero in its row, so it is reported as that row's slack. Basis returns nil
// before the first solve.
func (s *Solver) Basis() *Basis {
	if s.pcost == nil {
		return nil
	}
	b := &Basis{Cols: make([]BasisStatus, s.n), Rows: make([]BasisStatus, s.m)}
	for j := 0; j < s.n; j++ {
		b.Cols[j] = BasisStatus(s.vstat[j])
	}
	for r := 0; r < s.m; r++ {
		b.Rows[r] = BasisStatus(s.vstat[s.n+r])
	}
	for j := s.n + s.m; j < s.ncols; j++ {
		if s.vstat[j] == isBasic {
			b.Rows[s.cols[j][0].row] = Basic
		}
	}
	return b
}

// SolveFrom solves the problem starting from basis b instead of from the
// slack basis Solve builds. A nil b, or one sized for another problem, runs
// Solve. Otherwise b is installed with its defects repaired — a nonbasic
// status on an infinite bound moves to a finite one, excess basics are
// demoted (fixed variables first, since their values cannot move), missing
// ones are made up with row slacks — and factored; a column on which the
// factorization finds no pivot is swapped for the slack of a row left
// unpivoted. The solve then finishes as ReSolveDual does: bound-flip repair
// of dual feasibility, the dual pass, primal verification, and the same
// recovery ladder, whose last rung is a cold Solve. The start stands when
// it ends infeasible, canceled, or optimal at a point of the problem the
// solver was built from (Problem.Satisfies); any other ending climbs the
// refused rung and is solved again cold, and Result.Iters counts both
// attempts' pivots. Result.Recovery records the rungs climbed. An optimal b
// costs no pivots.
func (s *Solver) SolveFrom(b *Basis) *Result {
	if b == nil || len(b.Cols) != s.n || len(b.Rows) != s.m {
		return s.Solve()
	}
	s.rec = nil
	var res *Result
	if s.install(b) {
		res = s.reSolveDual()
	} else {
		res = s.cold()
	}
	if why := s.refusal(res); why != "" {
		s.climb(RungRefused)
		s.rec.Refused = why
		spent := res.Iters
		res = s.solve()
		res.Iters += spent
	}
	res.Recovery = s.rec
	return res
}

// refusal is why a start from a basis that ended in res does not stand, or
// "" when it stands.
func (s *Solver) refusal(res *Result) string {
	switch {
	case res.Status == StatusOptimal && !s.p.Satisfies(res.X):
		return "violates a row of the problem and is refused"
	case res.Status == StatusOptimal, res.Status == StatusInfeasible, res.Status == StatusCanceled:
		return ""
	}
	return fmt.Sprintf("ended %v", res.Status)
}

// install makes b the solver's basis and factors it. It reports false when
// the basis cannot be factored even after slack swaps: an injected fault,
// the nonzero budget, or a repair that does not converge.
func (s *Solver) install(b *Basis) bool {
	s.dropArtificials()
	for j, st := range b.Cols {
		s.vstat[j] = s.placed(j, int8(st))
	}
	for r, st := range b.Rows {
		s.vstat[s.n+r] = s.placed(s.n+r, int8(st))
	}
	nb := 0
	for j := 0; j < s.n+s.m; j++ {
		s.basisRow[j] = -1
		if s.vstat[j] == isBasic {
			nb++
		}
	}
	// Too many basics: demote the fixed ones first, then any, from the last
	// column back.
	for _, fixedOnly := range []bool{true, false} {
		for j := s.n + s.m - 1; j >= 0 && nb > s.m; j-- {
			//fragvet:ignore floatcmp — fixed-variable check: SetBound(j, v, v) stores bit-identical bounds, so exact equality is the invariant
			if s.vstat[j] == isBasic && (!fixedOnly || s.lb[j] == s.ub[j]) {
				s.vstat[j] = s.initialStatus(j)
				nb--
			}
		}
	}
	// Too few: make them up with row slacks, in row order; the slack swap
	// below repairs a choice that leaves the basis singular.
	for r := 0; r < s.m && nb < s.m; r++ {
		if sl := s.n + r; s.vstat[sl] != isBasic {
			s.vstat[sl] = isBasic
			nb++
		}
	}
	// Positions: each basic slack in its own row's, the basic structurals
	// in the rest in column order.
	for r := 0; r < s.m; r++ {
		s.basic[r] = -1
		if sl := s.n + r; s.vstat[sl] == isBasic {
			s.basic[r], s.basisRow[sl] = sl, r
		}
	}
	r := 0
	for j := 0; j < s.n; j++ {
		if s.vstat[j] != isBasic {
			continue
		}
		for s.basic[r] >= 0 {
			r++
		}
		s.basic[r], s.basisRow[j] = j, r
	}
	for swaps := 0; ; swaps++ {
		err := s.refactor()
		var se *singularError
		if err == nil {
			return true
		}
		if !errors.As(err, &se) || swaps == s.m {
			return false
		}
		sl := s.n + se.row
		if s.vstat[sl] == isBasic {
			return false
		}
		out := s.basic[se.pos]
		s.vstat[out] = s.initialStatus(out)
		s.basisRow[out] = -1
		s.basic[se.pos], s.basisRow[sl], s.vstat[sl] = sl, se.pos, isBasic
	}
}

// placed is the status column j takes for the requested status st: st
// itself when it is basic or names a finite bound, the column's natural
// nonbasic status otherwise.
func (s *Solver) placed(j int, st int8) int8 {
	switch {
	case st == isBasic, st == nbLower && !math.IsInf(s.lb[j], -1), st == nbUpper && !math.IsInf(s.ub[j], 1):
		return st
	}
	return s.initialStatus(j)
}
