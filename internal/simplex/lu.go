package simplex

import (
	"fmt"
	"math"
)

// basisKernel maintains a factorized representation of the m×m basis matrix
// B. The simplex driver (solver.go, primal.go, dual.go) is written entirely
// against this interface; the one implementation is the sparse LU kernel
// below, and dualrepair_test.go substitutes a corrupting shim through it.
//
// Vector indexing convention: FTRAN maps a right-hand side indexed by
// constraint row to a result indexed by basis position (column c of B is the
// column basic in row position c), BTRAN maps the other way. Both operate in
// place on caller-owned scratch; the kernel never retains a caller slice.
type basisKernel interface {
	// resetUnit installs the initial signed-unit basis: position r holds a
	// column whose single entry is diag[r] in row r. diag is copied.
	resetUnit(diag []float64)
	// factor rebuilds the factorization from scratch for the basis described
	// by basic and cols (cols[basic[c]] is the column at position c). It
	// fails on a numerically singular basis (no pivot above pivotTol in some
	// column) or when the factorization would exceed the nonzero budget.
	factor(basic []int, cols [][]colEntry, pivotTol float64) error
	// ftran solves B·w = v in place: on entry v is indexed by constraint
	// row, on exit by basis position.
	ftran(v []float64)
	// btran solves Bᵀ·y = v in place: on entry v is indexed by basis
	// position, on exit by constraint row.
	btran(v []float64)
	// btranPair is btran(a) and btran(b) in one sweep over the factorization,
	// each result bit-identical to a lone btran of that vector.
	btranPair(a, b []float64)
	// update absorbs a pivot replacing the basic variable of position r,
	// where w = B⁻¹·a_enter is the FTRAN result of the entering column.
	// w is read only; its nonzeros are copied into the eta file.
	update(r int, w []float64)
	// refreshDue reports that the solves since the last factor or resetUnit
	// have spent more on the updates absorbed since than a fresh factor
	// would cost, so the caller should refactorize now. It is never true
	// while no update has been absorbed.
	refreshDue() bool
}

// luThreshold is the relative threshold for partial pivoting: within a
// column, any candidate whose magnitude is at least luThreshold times the
// largest candidate is acceptable, and the smallest row index among the
// acceptable candidates is chosen. The relaxation (vs. strict largest-
// magnitude pivoting) keeps freedom to preserve sparsity while bounding
// element growth by 1/luThreshold per elimination step; the smallest-index
// rule makes the choice deterministic, which PR 1's bit-identical-results
// guarantee depends on.
const luThreshold = 0.1

// refreshRatio is the work balance behind refreshDue: a refactorization is
// due once the solves have walked refreshRatio eta nonzeros per unit of
// factorWork. It is the measured price of one factor work unit in eta
// nonzeros walked. CPU profiles of `bench measure --seconds 20` on
// accounting_cluster_k8 / tpcds_robust_r5 / allocd_drift (2-vCPU 2.10 GHz
// Xeon, go1.24.0; 1afa37b and this rule's own commit agree): factor takes
// 60–110 µs per call at a mean factorWork of 2 800 / 2 700 / 1 400, which
// is 27–50 ns per unit — DFS, scatter, pivot search and gather are each a
// dependent load per nonzero — while the eta passes of ftran, btran and
// btranPair stream at ~1 ns per nonzero. Refactoring when the eta walk since
// the last factor has cost as much as that factor did keeps the sum of the
// two within 2× of the best cadence in hindsight, whatever the pivot
// sequence (the ski-rental balance); on these workloads it is a refresh
// every 30–40 updates where the fixed cadence waited for 120.
const refreshRatio = 32

// luKernel is a sparse LU factorization of the basis, maintained across
// pivots by an eta file (product-form updates stored sparsely).
//
// The factorization is left-looking Gilbert–Peierls: columns are eliminated
// in a static Markowitz-style order (ascending nonzero count, position index
// as the tie-break — cheapest columns first, which pivots the unit slack
// columns of LP bases in O(1) each), each column is solved against the
// partial L by a sparse triangular solve whose access pattern is discovered
// by depth-first search (so work is proportional to arithmetic, not to m),
// and the pivot row is chosen by threshold partial pivoting (luThreshold).
//
// With row permutation P (rowOf/pinv) and column permutation Q (colOf),
// L·U = P·B·Q up to ordering: L is unit-lower-triangular in (row, step)
// indexing with the unit diagonal implicit, U is upper triangular in
// (step, step) indexing with its diagonal in udiag. FTRAN/BTRAN are the
// corresponding sparse triangular solves plus the eta file applied in
// creation order (FTRAN) or reverse (BTRAN).
//
// All index arrays are int32: a basis of 2³¹ rows is far beyond the nonzero
// budget anyway, and halving the index width halves the memory traffic of
// the triangular solves.
type luKernel struct {
	m      int
	maxNNZ int

	// Permutations. rowOf[k] is the constraint row pivotal at elimination
	// step k; pinv is its inverse (row → step). colOf[k] is the basis
	// position eliminated at step k.
	rowOf []int32
	pinv  []int32
	colOf []int32

	// L columns by elimination step, unit diagonal implicit. lrow holds
	// constraint-row indices.
	lptr []int32
	lrow []int32
	lval []float64
	// U columns by elimination step; urow holds step indices t < k, the
	// diagonal lives in udiag.
	uptr  []int32
	urow  []int32
	uval  []float64
	udiag []float64

	// Eta file: eta e records the FTRAN column w of the entering variable
	// at pivot position etaPiv[e]. Off-pivot nonzeros (basis-position
	// indices) live in etaRow/etaVal[etaPtr[e]:etaPtr[e+1]]; the pivot
	// element w[etaPiv[e]] is etaPivVal[e].
	etaPtr    []int32
	etaRow    []int32
	etaVal    []float64
	etaPiv    []int32
	etaPivVal []float64

	// The two sides of the refreshDue balance. factorWork is the size of the
	// last factor call: the basis columns it read plus m, plus the L and U
	// nonzeros it wrote if it succeeded (m alone after resetUnit). etaWalked
	// is the number of eta nonzeros the solves have visited since, a pair
	// sweep counting once.
	factorWork int
	etaWalked  int

	// Factorization scratch, reused across calls: x is the dense working
	// column, pat its nonzero pattern, rmark/vmark stamp visited rows and
	// steps (stamped with the current elimination step, so no clearing
	// between columns), stack/pstack drive the iterative DFS, reach holds
	// the topologically ordered update set, order the column ordering, and
	// hb the second dense vector of the triangular solves (hb2 the same for
	// the second vector of btranPair).
	x      []float64
	pat    []int32
	rmark  []int32
	vmark  []int32
	stack  []int32
	pstack []int32
	reach  []int32
	order  []int32
	hb     []float64
	hb2    []float64
}

func newLUKernel(m, maxNNZ int) *luKernel {
	return &luKernel{
		m:      m,
		maxNNZ: maxNNZ,
		rowOf:  make([]int32, m),
		pinv:   make([]int32, m),
		colOf:  make([]int32, m),
		lptr:   make([]int32, m+1),
		uptr:   make([]int32, m+1),
		udiag:  make([]float64, m),
		x:      make([]float64, m),
		pat:    make([]int32, 0, m),
		rmark:  newStamped(m),
		vmark:  newStamped(m),
		stack:  make([]int32, m),
		pstack: make([]int32, m),
		reach:  make([]int32, m),
		order:  make([]int32, m),
		hb:     make([]float64, m),
		hb2:    make([]float64, m),
	}
}

func newStamped(m int) []int32 {
	s := make([]int32, m)
	for i := range s {
		s[i] = -1
	}
	return s
}

func (k *luKernel) resetUnit(diag []float64) {
	for i := 0; i < k.m; i++ {
		k.rowOf[i] = int32(i)
		k.pinv[i] = int32(i)
		k.colOf[i] = int32(i)
		k.lptr[i+1] = 0
		k.uptr[i+1] = 0
	}
	copy(k.udiag, diag)
	k.lrow, k.lval = k.lrow[:0], k.lval[:0]
	k.urow, k.uval = k.urow[:0], k.uval[:0]
	k.clearEtas()
	k.factorWork = k.m
}

func (k *luKernel) clearEtas() {
	k.etaPtr = k.etaPtr[:0]
	k.etaRow, k.etaVal = k.etaRow[:0], k.etaVal[:0]
	k.etaPiv, k.etaPivVal = k.etaPiv[:0], k.etaPivVal[:0]
	k.etaWalked = 0
}

func (k *luKernel) refreshDue() bool {
	return len(k.etaPiv) > 0 && k.etaWalked >= refreshRatio*k.factorWork
}

// factor runs the left-looking sparse LU elimination described on luKernel.
func (k *luKernel) factor(basic []int, cols [][]colEntry, pivotTol float64) error {
	m := k.m
	k.lrow, k.lval = k.lrow[:0], k.lval[:0]
	k.urow, k.uval = k.urow[:0], k.uval[:0]
	k.clearEtas()
	for i := 0; i < m; i++ {
		k.pinv[i] = -1
		k.rmark[i] = -1
		k.vmark[i] = -1
	}

	// Static Markowitz-style column order: ascending nonzero count via a
	// counting sort (deterministic: positions stay in ascending order
	// within a bucket). LP basis columns have ≤ m nonzeros.
	counts := k.reach // borrow scratch: reach is rebuilt per column below
	for c := 0; c < m; c++ {
		counts[c] = 0
	}
	k.factorWork = m
	for c := 0; c < m; c++ {
		n := len(cols[basic[c]])
		k.factorWork += n
		if n >= m {
			n = m - 1
		}
		counts[n]++
	}
	// Prefix sums into bucket offsets, reusing pstack as the offset table.
	off := k.pstack
	sum := int32(0)
	for n := 0; n < m; n++ {
		off[n] = sum
		sum += counts[n]
	}
	for c := 0; c < m; c++ {
		n := len(cols[basic[c]])
		if n >= m {
			n = m - 1
		}
		k.order[off[n]] = int32(c)
		off[n]++
	}

	for step := 0; step < m; step++ {
		c := k.order[step]
		col := cols[basic[c]]

		// Symbolic: DFS from the column's already-pivotal rows through the
		// partial L, collecting the update steps in topological order into
		// reach[top:m].
		top := m
		stamp := int32(step)
		for _, e := range col {
			t := k.pinv[e.row]
			if t < 0 || k.vmark[t] == stamp {
				continue
			}
			// Iterative DFS from t; pstack holds the resume index into each
			// frame's L column.
			depth := 0
			k.stack[0] = t
			k.pstack[0] = k.lptr[t]
			k.vmark[t] = stamp
			for depth >= 0 {
				cur := k.stack[depth]
				end := k.lptr[cur+1]
				advanced := false
				for p := k.pstack[depth]; p < end; p++ {
					tt := k.pinv[k.lrow[p]]
					if tt < 0 || k.vmark[tt] == stamp {
						continue
					}
					k.pstack[depth] = p + 1
					depth++
					k.stack[depth] = tt
					k.pstack[depth] = k.lptr[tt]
					k.vmark[tt] = stamp
					advanced = true
					break
				}
				if advanced {
					continue
				}
				top--
				k.reach[top] = cur
				depth--
			}
		}

		// Numeric: scatter the column and apply the reach updates in order.
		k.pat = k.pat[:0]
		for _, e := range col {
			k.x[e.row] = e.val
			k.rmark[e.row] = stamp
			k.pat = append(k.pat, int32(e.row))
		}
		for p := top; p < m; p++ {
			t := k.reach[p]
			v := k.x[k.rowOf[t]]
			if v == 0 {
				continue
			}
			rows, vals := column(k.lptr, k.lrow, k.lval, int(t))
			for q, r := range rows {
				if k.rmark[r] != stamp {
					k.rmark[r] = stamp
					k.pat = append(k.pat, r)
					k.x[r] = 0
				}
				k.x[r] -= vals[q] * v
			}
		}

		// Threshold partial pivoting over the not-yet-pivotal rows.
		var maxAbs float64
		for _, r := range k.pat {
			if k.pinv[r] < 0 {
				if a := math.Abs(k.x[r]); a > maxAbs {
					maxAbs = a
				}
			}
		}
		if maxAbs <= pivotTol {
			for _, r := range k.pat {
				k.x[r] = 0
			}
			k.abort(step)
			row := 0
			for k.pinv[row] >= 0 {
				row++
			}
			return &singularError{step: step, pos: int(c), row: row}
		}
		prow := int32(-1)
		bar := luThreshold * maxAbs
		for _, r := range k.pat {
			if k.pinv[r] < 0 && math.Abs(k.x[r]) >= bar && (prow < 0 || r < prow) {
				prow = r
			}
		}

		// Gather U column step (pivotal rows) and L column step (the rest),
		// then clear x.
		for p := top; p < m; p++ {
			t := k.reach[p]
			if v := k.x[k.rowOf[t]]; v != 0 {
				k.urow = append(k.urow, t)
				k.uval = append(k.uval, v)
			}
		}
		piv := k.x[prow]
		k.udiag[step] = piv
		for _, r := range k.pat {
			if k.pinv[r] < 0 && r != prow {
				if v := k.x[r]; v != 0 {
					k.lrow = append(k.lrow, r)
					k.lval = append(k.lval, v/piv)
				}
			}
			k.x[r] = 0
		}
		k.lptr[step+1] = int32(len(k.lval))
		k.uptr[step+1] = int32(len(k.uval))
		k.rowOf[step] = prow
		k.pinv[prow] = int32(step)
		k.colOf[step] = c
		if len(k.lval)+len(k.uval)+m > k.maxNNZ {
			k.abort(step)
			return fmt.Errorf("simplex: basis factorization exceeds the %d-nonzero budget at step %d of %d", k.maxNNZ, step, m)
		}
	}
	k.factorWork += len(k.lval) + len(k.uval)
	return nil
}

// singularError is factor's report of a numerically singular basis: the
// column at basis position pos found no pivot above the tolerance at
// elimination step step, and row is the smallest row still unpivoted there.
// SolveFrom repairs such a basis by swapping row's slack in at pos.
type singularError struct{ step, pos, row int }

func (e *singularError) Error() string {
	return fmt.Sprintf("simplex: singular basis at elimination step %d", e.step)
}

// abort patches the column pointers of the not-yet-eliminated steps after a
// failed factorization. The recovery paths in primal.go and dual.go ignore
// refactorization errors and may keep issuing solves against the factor-
// ization, so a failed factor must leave the kernel safely indexable: the
// remaining steps become empty columns whose stale rowOf/colOf/udiag entries
// are in range and whose udiag values are nonzero (from resetUnit or an
// earlier successful factor). Solves then return garbage, and the recovery
// ladder or a later successful refactorization restores sanity.
func (k *luKernel) abort(step int) {
	for t := step; t < k.m; t++ {
		k.lptr[t+1] = int32(len(k.lval))
		k.uptr[t+1] = int32(len(k.uval))
	}
}

// column returns the index and value slices of column t of a compressed
// sparse matrix, cut to equal length: a range over rows then indexes vals
// without a bounds check, which leaves the gather/scatter into the dense
// vector as the only check of a solve's inner loop.
func column(ptr, idx []int32, val []float64, t int) (rows []int32, vals []float64) {
	lo, hi := ptr[t], ptr[t+1]
	rows = idx[lo:hi]
	return rows, val[lo:hi][:len(rows)]
}

// ftran solves B·w = v in place (v: row-indexed in, position-indexed out):
// L-solve, U-solve, permute, then the eta file in creation order. Every pass
// skips zero entries, so sparse right-hand sides cost O(m) scans plus work
// proportional to the structural nonzeros they actually touch.
func (k *luKernel) ftran(v []float64) {
	m := k.m
	k.etaWalked += len(k.etaVal)
	// Cut to m (their length already) so the per-step reads below are
	// provably in range; btran and btranPair do the same.
	rowOf, colOf, udiag, hb := k.rowOf[:m], k.colOf[:m], k.udiag[:m], k.hb[:m]
	// L-solve in row indexing, steps ascending.
	for t := 0; t < m; t++ {
		val := v[rowOf[t]]
		if val == 0 {
			continue
		}
		rows, vals := column(k.lptr, k.lrow, k.lval, t)
		for p, i := range rows {
			v[i] -= vals[p] * val
		}
	}
	// U-solve in step indexing, steps descending; hb[t] collects the
	// solution component of step t.
	for t := m - 1; t >= 0; t-- {
		g := v[rowOf[t]]
		if g == 0 {
			hb[t] = 0
			continue
		}
		h := g / udiag[t]
		hb[t] = h
		rows, vals := column(k.uptr, k.urow, k.uval, t)
		for p, i := range rows {
			v[rowOf[i]] -= vals[p] * h
		}
	}
	// Permute into basis-position indexing.
	clear(v[:m])
	for t, h := range hb {
		if h != 0 {
			v[colOf[t]] = h
		}
	}
	// Eta file forward: x_r ← x_r/w_r, then x_i ← x_i − w_i·x_r.
	for e, r := range k.etaPiv {
		xr := v[r]
		if xr == 0 {
			continue
		}
		xr /= k.etaPivVal[e]
		v[r] = xr
		rows, vals := column(k.etaPtr, k.etaRow, k.etaVal, e)
		for p, i := range rows {
			v[i] -= vals[p] * xr
		}
	}
}

// btran solves Bᵀ·y = v in place (v: position-indexed in, row-indexed out):
// eta file in reverse creation order, then Uᵀ-solve and Lᵀ-solve. The solves
// are gather-form — each output component is one running sum over a whole
// column — so every call visits all of the eta file, U and L whatever the
// sparsity of v.
func (k *luKernel) btran(v []float64) {
	m := k.m
	k.etaWalked += len(k.etaVal)
	rowOf, colOf, udiag, hb := k.rowOf[:m], k.colOf[:m], k.udiag[:m], k.hb[:m]
	// Eta file reverse: y_r ← (y_r − Σ_{i≠r} w_i·y_i) / w_r. No zero-skip on
	// y_i: the branch mispredicts cost more than the multiplies it saves.
	for e := len(k.etaPiv) - 1; e >= 0; e-- {
		r := k.etaPiv[e]
		s := v[r]
		rows, vals := column(k.etaPtr, k.etaRow, k.etaVal, e)
		for p, i := range rows {
			s -= vals[p] * v[i]
		}
		v[r] = s / k.etaPivVal[e]
	}
	// Uᵀ forward solve in step indexing into hb. Most columns of U and L are
	// empty (the unit slack columns of an LP basis), and with the eta file
	// kept short they are most of what is left of the sweep: both passes
	// compare the column's two pointers before slicing it.
	uptr, lptr := k.uptr, k.lptr
	for t := 0; t < m; t++ {
		s := v[colOf[t]]
		if uptr[t] != uptr[t+1] {
			rows, vals := column(uptr, k.urow, k.uval, t)
			for p, i := range rows {
				if f := hb[i]; f != 0 {
					s -= vals[p] * f
				}
			}
		}
		if s != 0 {
			s /= udiag[t]
		}
		hb[t] = s
	}
	// Lᵀ backward solve, writing the row-indexed result into v. Step t only
	// reads rows pivotal at later steps, which are already final.
	for t := m - 1; t >= 0; t-- {
		s := hb[t]
		if lptr[t] != lptr[t+1] {
			rows, vals := column(lptr, k.lrow, k.lval, t)
			for p, i := range rows {
				if y := v[i]; y != 0 {
					s -= vals[p] * y
				}
			}
		}
		v[rowOf[t]] = s
	}
}

// btranPair is btran(a) and btran(b) in one sweep over the eta file, U and
// L. Each vector keeps its own accumulator and sees exactly the operations
// of a lone btran in the same order, so both results are bit-identical to
// two separate calls. What the pair saves is the walk itself: the reverse
// eta pass is bound by the latency of one dependent s −= w_i·y_i chain, and
// the second chain runs in its shadow on index and value loads already made.
func (k *luKernel) btranPair(a, b []float64) {
	m := k.m
	k.etaWalked += len(k.etaVal)
	rowOf, colOf, udiag := k.rowOf[:m], k.colOf[:m], k.udiag[:m]
	ha, hb := k.hb[:m], k.hb2[:m]
	b = b[:len(a)] // one bounds check per element then covers both vectors
	for e := len(k.etaPiv) - 1; e >= 0; e-- {
		r := k.etaPiv[e]
		sa, sb := a[r], b[r]
		rows, vals := column(k.etaPtr, k.etaRow, k.etaVal, e)
		for p, i := range rows {
			w := vals[p]
			sa -= w * a[i]
			sb -= w * b[i]
		}
		piv := k.etaPivVal[e]
		a[r], b[r] = sa/piv, sb/piv
	}
	uptr, lptr := k.uptr, k.lptr
	for t := 0; t < m; t++ {
		c := colOf[t]
		sa, sb := a[c], b[c]
		if uptr[t] != uptr[t+1] {
			rows, vals := column(uptr, k.urow, k.uval, t)
			for p, i := range rows {
				u := vals[p]
				if f := ha[i]; f != 0 {
					sa -= u * f
				}
				if f := hb[i]; f != 0 {
					sb -= u * f
				}
			}
		}
		if sa != 0 {
			sa /= udiag[t]
		}
		if sb != 0 {
			sb /= udiag[t]
		}
		ha[t], hb[t] = sa, sb
	}
	for t := m - 1; t >= 0; t-- {
		sa, sb := ha[t], hb[t]
		if lptr[t] != lptr[t+1] {
			rows, vals := column(lptr, k.lrow, k.lval, t)
			for p, i := range rows {
				l := vals[p]
				if y := a[i]; y != 0 {
					sa -= l * y
				}
				if y := b[i]; y != 0 {
					sb -= l * y
				}
			}
		}
		r := rowOf[t]
		a[r], b[r] = sa, sb
	}
}

func (k *luKernel) update(r int, w []float64) {
	for i, wi := range w {
		if wi != 0 && i != r {
			k.etaRow = append(k.etaRow, int32(i))
			k.etaVal = append(k.etaVal, wi)
		}
	}
	if len(k.etaPtr) == 0 {
		k.etaPtr = append(k.etaPtr, 0)
	}
	k.etaPtr = append(k.etaPtr, int32(len(k.etaVal)))
	k.etaPiv = append(k.etaPiv, int32(r))
	k.etaPivVal = append(k.etaPivVal, w[r])
}
