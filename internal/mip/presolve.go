package mip

import (
	"math"

	"fragalloc/internal/simplex"
)

// Presolve shrinks a MIP before the branch-and-bound search sees it, using
// only reductions that preserve the full feasible region (so no optimal
// solution is ever cut off and heuristic proposals translate soundly):
//
//   - iterated activity-based bound tightening: each row's minimum/maximum
//     activity implies bounds on every variable it touches; iterating
//     propagates implications across rows. On the paper's models this is
//     what links the binaries — a query-coverage row Σx − |q|·y ≥ 0 with
//     placement variables fixed to 0 forces y to 0, which through the
//     linking rows z ≤ y forces the load shares to 0, and so on,
//   - integer bound rounding (ceil/floor with the integrality tolerance),
//   - singleton-row conversion: a one-variable row is just a bound,
//   - redundant-row removal and infeasible-row detection from the same
//     activity bounds,
//   - elimination of fixed variables (lb = ub, including variables fixed by
//     tightening) and of empty columns, with their objective contribution
//     accumulated into a constant offset.
//
// The reductions produce a smaller Problem in *reduced coordinates* plus a
// reversible mapping; the search runs entirely in reduced coordinates and
// the mapping restores Result.X, checkpointed incumbents, and log output to
// the caller's original coordinates (and translates caller proposals the
// other way).
//
// Everything is deterministic: rows and columns are visited in index order
// and ties resolve to the smallest index.

// presolveStats summarizes the reductions for logging and tests.
type presolveStats struct {
	FixedVars     int // variables eliminated (bounds collapsed or empty column)
	RemovedRows   int // rows removed (redundant, singleton, empty)
	TightenedVars int // bound-tightening applications
	Rounds        int // tightening sweeps until fixpoint
}

// presolveInfo is the reversible mapping between the caller's problem and
// the reduced problem the search actually runs on.
type presolveInfo struct {
	origN   int
	reduced *simplex.Problem
	intVars []int     // integer variables, reduced coordinates
	colMap  []int     // original column -> reduced column, or -1 if eliminated
	origCol []int     // reduced column -> original column
	rowMap  []int     // original row -> reduced row, or -1 if removed
	fixVal  []float64 // value of each eliminated original column
	isFixed []bool    // original column eliminated?
	isInt   []bool    // original column integer?
	objOff  float64   // objective contribution of the eliminated columns

	infeasible bool
	stats      presolveStats
}

// restore expands a reduced-coordinates solution vector to original
// coordinates, filling in the eliminated variables' fixed values. x may be
// nil when the reduced problem has no variables left.
func (ps *presolveInfo) restore(x []float64) []float64 {
	out := make([]float64, ps.origN)
	for j := 0; j < ps.origN; j++ {
		if ps.isFixed[j] {
			out[j] = ps.fixVal[j]
		} else {
			out[j] = x[ps.colMap[j]]
		}
	}
	return out
}

// reduceProposal translates an original-coordinates integer proposal into
// reduced coordinates. It returns nil when the proposal contradicts a value
// presolve proved (the proposal cannot be completed into a feasible point,
// because every reduction preserves the feasible region).
func (ps *presolveInfo) reduceProposal(proposal []float64) []float64 {
	if len(proposal) < ps.origN {
		return nil
	}
	for j := 0; j < ps.origN; j++ {
		//fragvet:ignore floatcmp — both sides are exact lattice integers: fixVal is a rounded integer bound and math.Round returns an exact integer float
		if ps.isFixed[j] && ps.isInt[j] && math.Round(proposal[j]) != ps.fixVal[j] {
			return nil
		}
	}
	out := make([]float64, len(ps.origCol))
	for r, j := range ps.origCol {
		out[r] = proposal[j]
	}
	return out
}

// reduceBasis translates a basis of the caller's problem p into reduced
// coordinates for the root's SolveFrom: kept columns and rows keep their
// statuses, eliminated ones drop out. A removed row whose slack was
// nonbasic was tight, and its removal leaves one basic too many; one kept
// basic column of that row, the first in the row with a finite bound to
// go to, is demoted to the bound that keeps the row tight — its upper bound
// for a positive coefficient in an LE row or a negative one in a GE row,
// its lower bound otherwise. Any count still off is SolveFrom's to repair.
// It returns nil for a nil basis or one not sized for p.
func (ps *presolveInfo) reduceBasis(p *simplex.Problem, b *simplex.Basis) *simplex.Basis {
	if b == nil || len(b.Cols) != ps.origN || len(b.Rows) != len(p.Rows) {
		return nil
	}
	red := ps.reduced
	out := &simplex.Basis{
		Cols: make([]simplex.BasisStatus, red.NumVars),
		Rows: make([]simplex.BasisStatus, len(red.Rows)),
	}
	for k, j := range ps.origCol {
		out.Cols[k] = b.Cols[j]
	}
	for i, r := range ps.rowMap {
		if r >= 0 {
			out.Rows[r] = b.Rows[i]
			continue
		}
		if b.Rows[i] == simplex.Basic || p.Rel[i] == simplex.EQ {
			continue
		}
		row := p.Rows[i]
		for t, j := range row.Idx {
			k := ps.colMap[j]
			if k < 0 || out.Cols[k] != simplex.Basic || row.Coef[t] == 0 {
				continue
			}
			if (row.Coef[t] > 0) == (p.Rel[i] == simplex.LE) {
				if !math.IsInf(red.UB[k], 1) {
					out.Cols[k] = simplex.AtUpper
					break
				}
			} else if !math.IsInf(red.LB[k], -1) {
				out.Cols[k] = simplex.AtLower
				break
			}
		}
	}
	return out
}

// wrow is a working copy of one constraint row: terms sorted by variable
// index with duplicates merged and zero coefficients dropped.
type wrow struct {
	idx  []int
	coef []float64
	rel  simplex.Relation
	rhs  float64
	live bool
}

// runPresolve applies the reductions to p (which is never mutated) and
// returns the mapping, with infeasible set when the reductions prove the
// problem has no feasible point.
func runPresolve(p *simplex.Problem, intVars []int, logf func(string, ...any)) *presolveInfo {
	n := p.NumVars
	ps := &presolveInfo{
		origN:   n,
		isInt:   make([]bool, n),
		isFixed: make([]bool, n),
		fixVal:  make([]float64, n),
		colMap:  make([]int, n),
	}
	for _, j := range intVars {
		ps.isInt[j] = true
	}
	lb := append([]float64(nil), p.LB...)
	ub := append([]float64(nil), p.UB...)

	rows := buildWorkingRows(p)

	pr := &presolver{ps: ps, lb: lb, ub: ub, rows: rows}
	pr.roundIntBounds()
	if pr.infeasibleBounds() {
		ps.infeasible = true
		return ps
	}

	// Iterated tightening to a fixpoint (bounded: each sweep either changes
	// a bound meaningfully or terminates the loop).
	const maxRounds = 20
	for round := 0; round < maxRounds; round++ {
		pr.changed = false
		for r := range rows {
			if !rows[r].live {
				continue
			}
			if !pr.processRow(&rows[r]) {
				ps.infeasible = true
				return ps
			}
		}
		pr.roundIntBounds()
		if pr.infeasibleBounds() {
			ps.infeasible = true
			return ps
		}
		ps.stats.Rounds = round + 1
		if !pr.changed {
			break
		}
	}

	pr.fixCollapsedAndEmptyColumns(p)

	if !pr.rebuild(p) {
		ps.infeasible = true
		return ps
	}
	if logf != nil && (ps.stats.FixedVars > 0 || ps.stats.RemovedRows > 0 || ps.stats.TightenedVars > 0) {
		logf("mip: presolve fixed %d/%d vars, removed %d/%d rows, tightened %d bounds in %d rounds",
			ps.stats.FixedVars, n, ps.stats.RemovedRows, len(p.Rows), ps.stats.TightenedVars, ps.stats.Rounds)
	}
	return ps
}

// buildWorkingRows copies p's rows into canonical working form.
func buildWorkingRows(p *simplex.Problem) []wrow {
	rows := make([]wrow, len(p.Rows))
	scratch := make([]float64, p.NumVars)
	for r, row := range p.Rows {
		// Merge duplicate indices and drop zeros via a dense scratch pass,
		// then emit in ascending variable order.
		touched := make([]int, 0, len(row.Idx))
		for t, j := range row.Idx {
			if scratch[j] == 0 && row.Coef[t] != 0 {
				touched = append(touched, j)
			}
			scratch[j] += row.Coef[t]
		}
		sortInts(touched)
		w := wrow{rel: p.Rel[r], rhs: p.RHS[r], live: true}
		for _, j := range touched {
			if scratch[j] != 0 {
				w.idx = append(w.idx, j)
				w.coef = append(w.coef, scratch[j])
			}
			scratch[j] = 0
		}
		rows[r] = w
	}
	return rows
}

// sortInts is an insertion sort: the builder emits rows in ascending
// variable order already, so this is a near-no-op safety net that avoids
// pulling in package sort for int slices.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for k := i; k > 0 && a[k] < a[k-1]; k-- {
			a[k], a[k-1] = a[k-1], a[k]
		}
	}
}

// presolver carries the mutable working state of one runPresolve call.
type presolver struct {
	ps      *presolveInfo
	lb, ub  []float64
	rows    []wrow
	changed bool
}

// feasEps is the feasibility slack used when declaring rows redundant or
// infeasible: conservative in both directions (a row is only removed when
// satisfied with room to spare, only declared infeasible when violated
// beyond roundoff).
func feasEps(scale float64) float64 { return 1e-7 * (1 + math.Abs(scale)) }

// roundIntBounds snaps integer variable bounds to the integer lattice.
func (pr *presolver) roundIntBounds() {
	for j := range pr.lb {
		if !pr.ps.isInt[j] || pr.ps.isFixed[j] {
			continue
		}
		if l := math.Ceil(pr.lb[j] - intTol); l > pr.lb[j] {
			pr.lb[j] = l
		}
		if u := math.Floor(pr.ub[j] + intTol); u < pr.ub[j] {
			pr.ub[j] = u
		}
	}
}

// infeasibleBounds reports whether any variable's bounds crossed.
func (pr *presolver) infeasibleBounds() bool {
	for j := range pr.lb {
		if pr.lb[j] > pr.ub[j]+feasEps(pr.ub[j]) {
			return true
		}
	}
	return false
}

// activity computes the finite parts and infinite-contribution counts of a
// row's minimum and maximum activity under the current bounds.
func (pr *presolver) activity(w *wrow) (minA, maxA float64, minInf, maxInf int) {
	for t, j := range w.idx {
		a := w.coef[t]
		lo, hi := pr.lb[j], pr.ub[j]
		if a < 0 {
			lo, hi = hi, lo
		}
		if math.IsInf(lo, 0) {
			minInf++
		} else {
			minA += a * lo
		}
		if math.IsInf(hi, 0) {
			maxInf++
		} else {
			maxA += a * hi
		}
	}
	return
}

// processRow applies singleton conversion, redundancy/infeasibility checks,
// and bound tightening to one live row. It reports false on proven
// infeasibility.
func (pr *presolver) processRow(w *wrow) bool {
	if len(w.idx) == 0 {
		ok := emptyRowFeasible(w.rel, w.rhs)
		w.live = false
		pr.ps.stats.RemovedRows++
		pr.changed = true
		return ok
	}
	if len(w.idx) == 1 {
		return pr.singletonToBound(w)
	}
	minA, maxA, minInf, maxInf := pr.activity(w)

	// Infeasibility and redundancy from the activity interval.
	eps := feasEps(w.rhs)
	switch w.rel {
	case simplex.LE:
		if minInf == 0 && minA > w.rhs+eps {
			return false
		}
		if maxInf == 0 && maxA <= w.rhs+1e-9*(1+math.Abs(w.rhs)) {
			w.live = false
			pr.ps.stats.RemovedRows++
			pr.changed = true
			return true
		}
	case simplex.GE:
		if maxInf == 0 && maxA < w.rhs-eps {
			return false
		}
		if minInf == 0 && minA >= w.rhs-1e-9*(1+math.Abs(w.rhs)) {
			w.live = false
			pr.ps.stats.RemovedRows++
			pr.changed = true
			return true
		}
	case simplex.EQ:
		if (minInf == 0 && minA > w.rhs+eps) || (maxInf == 0 && maxA < w.rhs-eps) {
			return false
		}
	}

	// Bound tightening: for each variable, the row minus the residual
	// activity of the others implies a bound.
	for t, j := range w.idx {
		a := w.coef[t]
		lo, hi := pr.lb[j], pr.ub[j]
		cMin, cMax := a*lo, a*hi
		if a < 0 {
			cMin, cMax = cMax, cMin
		}
		if w.rel == simplex.LE || w.rel == simplex.EQ {
			if resid, ok := residual(minA, minInf, cMin); ok {
				v := (w.rhs - resid) / a
				if a > 0 {
					pr.tightenUB(j, v)
				} else {
					pr.tightenLB(j, v)
				}
			}
		}
		if w.rel == simplex.GE || w.rel == simplex.EQ {
			if resid, ok := residual(maxA, maxInf, cMax); ok {
				v := (w.rhs - resid) / a
				if a > 0 {
					pr.tightenLB(j, v)
				} else {
					pr.tightenUB(j, v)
				}
			}
		}
	}
	return true
}

// residual subtracts one term's contribution from a finite activity part,
// reporting ok=false when the residual is infinite (some other term
// contributes an infinity).
func residual(act float64, actInf int, contrib float64) (float64, bool) {
	if math.IsInf(contrib, 0) {
		if actInf == 1 {
			return act, true
		}
		return 0, false
	}
	if actInf > 0 {
		return 0, false
	}
	return act - contrib, true
}

// emptyRowFeasible decides a row whose every variable has been eliminated.
func emptyRowFeasible(rel simplex.Relation, rhs float64) bool {
	eps := feasEps(rhs)
	switch rel {
	case simplex.LE:
		return 0 <= rhs+eps
	case simplex.GE:
		return 0 >= rhs-eps
	default:
		return math.Abs(rhs) <= eps
	}
}

// singletonToBound converts a one-variable row into variable bounds and
// removes it. Reports false on proven infeasibility (crossed bounds surface
// at the next infeasibleBounds check; only a contradictory EQ row on an
// integer lattice fails here directly).
func (pr *presolver) singletonToBound(w *wrow) bool {
	j, a := w.idx[0], w.coef[0]
	v := w.rhs / a
	rel := w.rel
	if a < 0 {
		if rel == simplex.LE {
			rel = simplex.GE
		} else if rel == simplex.GE {
			rel = simplex.LE
		}
	}
	switch rel {
	case simplex.LE:
		pr.tightenUB(j, v)
	case simplex.GE:
		pr.tightenLB(j, v)
	case simplex.EQ:
		pr.tightenUB(j, v)
		pr.tightenLB(j, v)
	}
	w.live = false
	pr.ps.stats.RemovedRows++
	pr.changed = true
	return true
}

// tightenUB lowers variable j's upper bound to v when that is a meaningful
// improvement. Integer bounds are floored (with integrality slack); the
// continuous acceptance threshold guards both against cutting feasible
// points through roundoff (v gets a small upward slack) and against endless
// epsilon-sized "improvements" keeping the fixpoint loop alive.
func (pr *presolver) tightenUB(j int, v float64) {
	if pr.ps.isInt[j] {
		v = math.Floor(v + intTol)
		if v < pr.ub[j] {
			pr.ub[j] = v
			pr.ps.stats.TightenedVars++
			pr.changed = true
		}
		return
	}
	v += 1e-9 * (1 + math.Abs(v))
	if v < pr.ub[j]-1e-7*(1+math.Abs(pr.ub[j])) {
		pr.ub[j] = v
		pr.ps.stats.TightenedVars++
		pr.changed = true
	}
}

// tightenLB raises variable j's lower bound to v; see tightenUB.
func (pr *presolver) tightenLB(j int, v float64) {
	if pr.ps.isInt[j] {
		v = math.Ceil(v - intTol)
		if v > pr.lb[j] {
			pr.lb[j] = v
			pr.ps.stats.TightenedVars++
			pr.changed = true
		}
		return
	}
	v -= 1e-9 * (1 + math.Abs(v))
	if v > pr.lb[j]+1e-7*(1+math.Abs(pr.lb[j])) {
		pr.lb[j] = v
		pr.ps.stats.TightenedVars++
		pr.changed = true
	}
}

// fixCollapsedAndEmptyColumns eliminates variables whose bounds collapsed
// (fixing them at the collapsed value) and variables that appear in no live
// row (fixing them at their objective-optimal finite bound, when one
// exists — a variable free in its improving direction is left for the LP,
// which detects unboundedness).
func (pr *presolver) fixCollapsedAndEmptyColumns(p *simplex.Problem) {
	inLiveRow := make([]bool, pr.ps.origN)
	for r := range pr.rows {
		if !pr.rows[r].live {
			continue
		}
		for _, j := range pr.rows[r].idx {
			inLiveRow[j] = true
		}
	}
	for j := 0; j < pr.ps.origN; j++ {
		if pr.ps.isFixed[j] {
			continue
		}
		lo, hi := pr.lb[j], pr.ub[j]
		if hi-lo <= 1e-9*(1+math.Abs(lo)) {
			v := lo
			if pr.ps.isInt[j] {
				v = math.Round(lo)
			}
			pr.fix(j, v)
			continue
		}
		if inLiveRow[j] {
			continue
		}
		// Empty column: pick the bound the objective prefers.
		obj := p.Obj[j]
		var v float64
		switch {
		case obj > 0:
			v = lo
		case obj < 0:
			v = hi
		default:
			// Objective-neutral: the finite bound nearest zero, or zero.
			lf, uf := !math.IsInf(lo, -1), !math.IsInf(hi, 1)
			switch {
			case lf && uf:
				if math.Abs(hi) < math.Abs(lo) {
					v = hi
				} else {
					v = lo
				}
			case lf:
				v = lo
			case uf:
				v = hi
			default:
				v = 0
			}
		}
		if math.IsInf(v, 0) {
			continue // improving direction unbounded; let the LP report it
		}
		pr.fix(j, v)
	}
}

func (pr *presolver) fix(j int, v float64) {
	pr.ps.isFixed[j] = true
	pr.ps.fixVal[j] = v
	pr.ps.stats.FixedVars++
}

// rebuild assembles the reduced problem, substituting fixed variables into
// the surviving rows and accumulating their objective contribution into
// objOff. Reports false when a row empties into a contradiction.
func (pr *presolver) rebuild(p *simplex.Problem) bool {
	ps := pr.ps
	red := &simplex.Problem{}
	ps.origCol = ps.origCol[:0]
	for j := 0; j < ps.origN; j++ {
		if ps.isFixed[j] {
			ps.colMap[j] = -1
			ps.objOff += p.Obj[j] * ps.fixVal[j]
			continue
		}
		ps.colMap[j] = red.AddVar(pr.lb[j], pr.ub[j], p.Obj[j])
		ps.origCol = append(ps.origCol, j)
	}
	var idx []int
	var coef []float64
	ps.rowMap = make([]int, len(pr.rows))
	for r := range pr.rows {
		w := &pr.rows[r]
		ps.rowMap[r] = -1
		if !w.live {
			continue
		}
		idx, coef = idx[:0], coef[:0]
		rhs := w.rhs
		for t, j := range w.idx {
			if ps.isFixed[j] {
				rhs -= w.coef[t] * ps.fixVal[j]
				continue
			}
			idx = append(idx, ps.colMap[j])
			coef = append(coef, w.coef[t])
		}
		if len(idx) == 0 {
			if !emptyRowFeasible(w.rel, rhs) {
				return false
			}
			ps.stats.RemovedRows++
			continue
		}
		ps.rowMap[r] = red.AddRow(idx, coef, w.rel, rhs)
	}
	ps.reduced = red
	for j := 0; j < ps.origN; j++ {
		if ps.isInt[j] && !ps.isFixed[j] {
			ps.intVars = append(ps.intVars, ps.colMap[j])
		}
	}
	return true
}
