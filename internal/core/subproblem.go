package core

import (
	"fmt"
	"math"
	"sort"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/simplex"
)

// subproblem is one instance of the LP/MIP (3)–(7) of the paper: distribute
// the inherited workload shares of the active queries over B subnodes so
// that every scenario balances, minimizing the allocated data.
//
// Ownership: a subproblem is built by one driver.solve call and solved on
// one goroutine; its solve constructs private simplex/MIP solvers (which
// copy the problem), so concurrent solves of distinct subproblems share
// nothing mutable. The workload, scenario set, costs, and inherited shares
// are shared read-only across subproblems; the only field driver.solve
// mutates after construction is weights (see clone).
type subproblem struct {
	w     *model.Workload
	ss    *model.ScenarioSet
	costs []float64 // C_s, global scenario costs (shared across levels)
	k     int       // global node count
	vNorm float64   // V, global accessed data size (objective normalizer)
	alpha float64   // penalty weight on the load limit L

	activeFrag []bool      // x̄: fragments available to this subproblem
	flexQ      []int       // active queries assignable by the LP
	fixedQ     []int       // partial-clustering queries pinned to subnode 0
	shares     [][]float64 // z̄[s][query]: inherited share per scenario
	weights    []float64   // w_b = (leaves of subnode b)/K
	hasFixed   bool        // subnode 0 contains global leaf 0
}

// clone returns a copy of sp that is safe to solve concurrently with uses
// of the original: the weights slice — the one field driver.solve mutates —
// is deep-copied, while the read-only inputs (workload, scenario set,
// costs, shares, query lists, fragment mask) stay shared.
func (sp *subproblem) clone() *subproblem {
	cp := *sp
	cp.weights = append([]float64(nil), sp.weights...)
	return &cp
}

// indices maps model entities to LP variable columns.
type indices struct {
	b     int     // number of subnodes
	frags []int   // active fragment IDs, in column order
	x     [][]int // x[fi][b]
	y     map[int][]int
	z     map[[2]int][]int // (query, scenario) -> per-subnode z columns (nil entries possible)
	l     int
}

// build constructs the MIP in the reformulated shape described in DESIGN.md:
// y binary, x continuous in [0,1] (the aggregated coverage rows (4) force x
// integral whenever y is integral), z continuous, and the balance limit L
// unbounded above so that imbalance is penalized, not forbidden. With
// withSymmetry false the symmetry-breaking rows are omitted (the dive
// heuristic works on that relaxed copy and canonicalizes afterwards); the
// variable layout is identical either way.
func (sp *subproblem) build(withSymmetry bool) (*simplex.Problem, *indices, []int) {
	p := &simplex.Problem{}
	b := len(sp.weights)
	ix := &indices{
		b: b,
		y: make(map[int][]int, len(sp.flexQ)),
		z: make(map[[2]int][]int),
	}
	for i, active := range sp.activeFrag {
		if active {
			ix.frags = append(ix.frags, i)
		}
	}

	// x variables. Fragments required by fixed queries get lb=1 on subnode 0,
	// which encodes the consequence of constraint (9) directly.
	forced := make([]bool, len(sp.w.Fragments))
	if sp.hasFixed {
		for _, j := range sp.fixedQ {
			if !sp.fixedRuns(j) {
				continue
			}
			for _, i := range sp.w.Queries[j].Fragments {
				forced[i] = true
			}
		}
	}
	ix.x = make([][]int, len(ix.frags))
	for fi, i := range ix.frags {
		ix.x[fi] = make([]int, b)
		for bb := 0; bb < b; bb++ {
			lb := 0.0
			if bb == 0 && forced[i] {
				lb = 1
			}
			ix.x[fi][bb] = p.AddVar(lb, 1, sp.w.Fragments[i].Size/sp.vNorm)
		}
	}
	fragCol := make([]int, len(sp.w.Fragments)) // fragment ID -> column base
	for i := range fragCol {
		fragCol[i] = -1
	}
	for fi, i := range ix.frags {
		fragCol[i] = fi
	}

	// y variables (binary) for flexible queries.
	var intVars []int
	for _, j := range sp.flexQ {
		cols := make([]int, b)
		for bb := 0; bb < b; bb++ {
			cols[bb] = p.AddVar(0, 1, 0)
			intVars = append(intVars, cols[bb])
		}
		ix.y[j] = cols
	}

	// z variables for (flexible query, scenario) pairs that carry load.
	for _, j := range sp.flexQ {
		for s := 0; s < sp.ss.S(); s++ {
			if sp.shares[s][j] <= 0 || sp.ss.Frequencies[s][j] <= 0 {
				continue
			}
			cols := make([]int, b)
			for bb := 0; bb < b; bb++ {
				cols[bb] = p.AddVar(0, sp.shares[s][j], 0)
			}
			ix.z[[2]int{j, s}] = cols
		}
	}

	// L: worst normalized node load over subnodes and scenarios. Perfect
	// balance corresponds to L = 1 (each subnode b carries exactly w_b of a
	// scenario's cost); the α-penalty drives solutions toward it.
	ix.l = p.AddVar(0, math.Inf(1), sp.alpha)

	// (4) coverage: Σ_{i∈q_j} x_{i,b} − |q_j|·y_{j,b} ≥ 0.
	for _, j := range sp.flexQ {
		q := &sp.w.Queries[j]
		for bb := 0; bb < b; bb++ {
			idx := make([]int, 0, len(q.Fragments)+1)
			coef := make([]float64, 0, len(q.Fragments)+1)
			for _, i := range q.Fragments {
				idx = append(idx, ix.x[fragCol[i]][bb])
				coef = append(coef, 1)
			}
			idx = append(idx, ix.y[j][bb])
			coef = append(coef, -float64(len(q.Fragments)))
			p.AddRow(idx, coef, simplex.GE, 0)
		}
	}

	// (5) linking: z_{j,b,s} ≤ y_{j,b}.
	for _, j := range sp.flexQ {
		for s := 0; s < sp.ss.S(); s++ {
			cols, ok := ix.z[[2]int{j, s}]
			if !ok {
				continue
			}
			for bb := 0; bb < b; bb++ {
				p.AddRow([]int{cols[bb], ix.y[j][bb]}, []float64{1, -1}, simplex.LE, 0)
			}
		}
	}

	// (6) balance: Σ_j f_{j,s}·c_j/(C_s·w_b)·z_{j,b,s} − L ≤ −fixedLoad_{b,s}.
	for bb := 0; bb < b; bb++ {
		for s := 0; s < sp.ss.S(); s++ {
			var idx []int
			var coef []float64
			for _, j := range sp.flexQ {
				cols, ok := ix.z[[2]int{j, s}]
				if !ok {
					continue
				}
				c := sp.ss.Frequencies[s][j] * sp.w.Queries[j].Cost / (sp.costs[s] * sp.weights[bb])
				if c == 0 {
					continue
				}
				idx = append(idx, cols[bb])
				coef = append(coef, c)
			}
			rhs := 0.0
			if bb == 0 && sp.hasFixed {
				rhs = -sp.fixedLoad(s) / sp.weights[0]
			}
			idx = append(idx, ix.l)
			coef = append(coef, -1)
			p.AddRow(idx, coef, simplex.LE, rhs)
		}
	}

	// Symmetry breaking (an implementation refinement over the paper's
	// plain MIP): subnodes with equal weight — and without the pinned
	// clustering load of subnode 0 — are interchangeable, which makes plain
	// branch and bound revisit permuted copies of the same allocation.
	// Within each class of interchangeable subnodes we require the weighted
	// query-incidence key Σ_j 2^{-rank(j)}·y_{j,b} to be non-increasing in
	// b. Every feasible solution has a permutation satisfying this, so the
	// optimum is preserved while the permuted duplicates are cut off.
	keyW := sp.symKeyWeights()
	if !withSymmetry {
		keyW = nil
	}
	for _, cls := range sp.symClasses() {
		if keyW == nil {
			break
		}
		for t := 0; t+1 < len(cls); t++ {
			var idx []int
			var coef []float64
			for _, j := range sp.flexQ {
				wgt := keyW[j]
				if wgt == 0 {
					continue
				}
				idx = append(idx, ix.y[j][cls[t]], ix.y[j][cls[t+1]])
				coef = append(coef, wgt, -wgt)
			}
			if idx != nil {
				p.AddRow(idx, coef, simplex.GE, 0)
			}
		}
	}

	// (7) conservation: Σ_b z_{j,b,s} = z̄_{j,s}.
	for _, j := range sp.flexQ {
		for s := 0; s < sp.ss.S(); s++ {
			cols, ok := ix.z[[2]int{j, s}]
			if !ok {
				continue
			}
			coef := make([]float64, b)
			for bb := range coef {
				coef[bb] = 1
			}
			p.AddRow(cols, coef, simplex.EQ, sp.shares[s][j])
		}
	}

	return p, ix, intVars
}

// expectedLoad returns the mean over scenarios of query j's share of the
// scenario cost, weighted by its inherited share.
func (sp *subproblem) expectedLoad(j int) float64 {
	var load float64
	for s := 0; s < sp.ss.S(); s++ {
		load += sp.shares[s][j] * sp.ss.Frequencies[s][j] * sp.w.Queries[j].Cost / sp.costs[s]
	}
	return load / float64(sp.ss.S())
}

// symClasses groups interchangeable subnodes: equal weight, and not the
// clustering subnode 0 (whose pinned load makes it distinguishable).
func (sp *subproblem) symClasses() [][]int {
	var classes [][]int
	start := 0
	if sp.hasFixed {
		start = 1
	}
	var cur []int
	flush := func() {
		if len(cur) > 1 {
			classes = append(classes, cur)
		}
		cur = nil
	}
	for b := start; b < len(sp.weights); b++ {
		if len(cur) > 0 && !simplex.EqTol(sp.weights[b], sp.weights[cur[0]], 1e-12) {
			flush()
		}
		cur = append(cur, b)
	}
	flush()
	return classes
}

// symKeyWeights assigns geometric weights 2^-rank to the flexible queries in
// descending load order; queries beyond float precision get weight 0.
func (sp *subproblem) symKeyWeights() map[int]float64 {
	order := append([]int(nil), sp.flexQ...)
	loads := make(map[int]float64, len(order))
	for _, j := range order {
		loads[j] = sp.expectedLoad(j)
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })
	w := make(map[int]float64, len(order))
	for r, j := range order {
		if r >= 45 {
			break
		}
		w[j] = math.Pow(0.5, float64(r))
	}
	return w
}

// fixedRuns reports whether fixed query j carries load in any scenario.
func (sp *subproblem) fixedRuns(j int) bool {
	for s := 0; s < sp.ss.S(); s++ {
		if sp.shares[s][j] > 0 && sp.ss.Frequencies[s][j] > 0 {
			return true
		}
	}
	return false
}

// fixedLoad returns the share of scenario s's total cost pinned to subnode 0
// by the fixed queries.
func (sp *subproblem) fixedLoad(s int) float64 {
	var load float64
	for _, j := range sp.fixedQ {
		load += sp.shares[s][j] * sp.ss.Frequencies[s][j] * sp.w.Queries[j].Cost / sp.costs[s]
	}
	return load
}

// rounding builds the MIP incumbent heuristic: each flexible query proposes
// y=1 on its strongest subnode plus every subnode already above 1/2, and
// the proposal is canonicalized to satisfy the symmetry-breaking rows
// (columns within an interchangeable class are sorted by the same key).
func (sp *subproblem) rounding(ix *indices) func(x []float64) []float64 {
	classes := sp.symClasses()
	keyW := sp.symKeyWeights()
	return func(x []float64) []float64 {
		out := append([]float64(nil), x...)
		//fragvet:ignore rangemaporder — each query's column set is disjoint; out[col] writes never overlap across keys
		for _, cols := range ix.y {
			best, bestVal := 0, -1.0
			for bb, col := range cols {
				if x[col] > bestVal {
					best, bestVal = bb, x[col]
				}
				if x[col] >= 0.5 {
					out[col] = 1
				} else {
					out[col] = 0
				}
			}
			out[cols[best]] = 1
		}
		sp.canonicalize(out, ix, classes, keyW)
		return out
	}
}

// canonicalize permutes the proposed y columns within each symmetric class
// so the incidence keys are non-increasing, making the proposal consistent
// with the symmetry-breaking rows.
func (sp *subproblem) canonicalize(out []float64, ix *indices, classes [][]int, keyW map[int]float64) {
	for _, cls := range classes {
		key := make(map[int]float64, len(cls))
		for _, b := range cls {
			var v float64
			for _, j := range sp.flexQ {
				if wgt := keyW[j]; wgt != 0 {
					v += wgt * out[ix.y[j][b]]
				}
			}
			key[b] = v
		}
		perm := append([]int(nil), cls...)
		sort.SliceStable(perm, func(a, b int) bool { return key[perm[a]] > key[perm[b]] })
		changed := false
		for t := range cls {
			if perm[t] != cls[t] {
				changed = true
			}
		}
		if !changed {
			continue
		}
		for _, j := range sp.flexQ {
			cols := ix.y[j]
			vals := make([]float64, len(cls))
			for t, b := range perm {
				vals[t] = out[cols[b]]
			}
			for t, b := range cls {
				out[cols[b]] = vals[t]
			}
		}
	}
}

// dive is the LP-guided dive-and-fix primal heuristic: starting from the
// LP relaxation (without symmetry rows), it fixes the y row of one query at
// a time — heaviest expected load first, each subnode rounded to its
// relaxation value — re-solving the LP with the warm-started dual simplex
// after every row. The result is an integral y proposal of far higher
// quality than one-shot rounding; it seeds the branch and bound as its
// first incumbent (mip.Options.Start).
func (sp *subproblem) dive(ix *indices, lp simplex.Options) []float64 {
	p, _, _ := sp.build(false)
	// The dive's fix thresholds (0.5 / 0.02 / 0.05) read the *vertex* the LP
	// returns, and degenerate relaxations have many optimal vertices — which
	// one surfaces depends on the pricing rule's pivot order. Pin the
	// heuristic to the baseline rule so its proposal quality is a property of
	// the model, not of whichever pricing the session selected for speed
	// (the branch-and-bound re-solves, where pricing matters, still use the
	// configured rule).
	lp.Pricing = simplex.PricingDantzig
	s, err := simplex.NewSolver(p, lp)
	if err != nil {
		return nil
	}
	res := s.Solve()
	if res.Status != simplex.StatusOptimal {
		return nil
	}
	order := append([]int(nil), sp.flexQ...)
	loads := make(map[int]float64, len(order))
	for _, j := range order {
		loads[j] = sp.expectedLoad(j)
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })

	for _, j := range order {
		cols := ix.y[j]
		best, bestVal := 0, -1.0
		for bb, col := range cols {
			if v := res.X[col]; v > bestVal {
				best, bestVal = bb, v
			}
		}
		// Fix the confident ones to 1 and the negligible ones to 0; leave
		// mid-range values free so later queries — and the routing of this
		// one — keep the flexibility to balance. (Fixing everything below
		// 1/2 to 0 concentrates heavy queries on single subnodes and
		// wrecks the load limit L.)
		for bb, col := range cols {
			switch {
			case bb == best || res.X[col] >= 0.5:
				s.SetBound(col, 1, 1)
			case res.X[col] < 0.02:
				s.SetBound(col, 0, 0)
			}
		}
		res = s.ReSolveDual()
		if res.Status != simplex.StatusOptimal {
			return nil
		}
	}
	// Round the leftover fractional y UP: upward rounding keeps every
	// fractional routing feasible (z ≤ y = 1), so the completed incumbent
	// stays balanced at the cost of some extra coverage, which the branch
	// and bound then trims. Tiny values carry negligible routing and are
	// dropped instead.
	out := append([]float64(nil), res.X...)
	for _, j := range sp.flexQ {
		for _, col := range ix.y[j] {
			if out[col] >= 0.05 {
				out[col] = 1
			} else {
				out[col] = 0
			}
		}
	}
	sp.canonicalize(out, ix, sp.symClasses(), sp.symKeyWeights())
	return out
}

// solution is the decoded outcome of one subproblem solve.
type solution struct {
	yes   map[int][]bool       // query -> runnable per subnode
	z     map[[2]int][]float64 // (query, scenario) -> share per subnode
	frags [][]int              // derived fragment sets per subnode (sorted)
	l     float64              // normalized worst load
	// gap is the absolute objective gap (incumbent − proven bound). Since
	// the objective is W/V + αL and optima balance (L = 1) like the
	// incumbents, it bounds the memory suboptimality in W/V units.
	gap     float64
	nodes   int
	lpiters int
	exact   bool
	status  mip.Status
	// outcome classifies the solve for the failure policy; extraBytes is
	// nonzero only for degraded solutions (allocated bytes beyond the
	// single-copy floor, feeding Result.DegradedDelta).
	outcome    Outcome
	extraBytes float64
}

// solve builds and solves the subproblem MIP. Each non-nil hint proposes an
// additional starting placement (query → runnable per subnode), typically
// from a hierarchical decomposition pre-solve, the greedy baseline, or a
// resumed journal record. ck, when non-nil, wires the durable journal into
// the search: a journaled in-flight incumbent from a crashed run seeds the
// restarted MIP, and the search's periodic Checkpoint callback writes fresh
// incumbents back under the same subproblem id.
func (sp *subproblem) solve(opt mip.Options, ck *subCheckpoint, hints ...map[int][]bool) (*solution, error) {
	p, ix, intVars := sp.build(true)
	opt.Rounding = sp.rounding(ix)
	if ck != nil {
		if m := ck.rec.MIP(ck.id); m != nil && len(m.X) == p.NumVars {
			opt.Starts = append(opt.Starts, append([]float64(nil), m.X...))
		}
		opt.CheckpointEvery = ck.rec.Every()
		rec, id := ck.rec, ck.id
		opt.Checkpoint = func(snap mip.Snapshot) {
			if !snap.HasIncumbent {
				return
			}
			mr := &checkpoint.MIPRecord{
				X:         snap.X,
				Obj:       finite(snap.Obj),
				RootBound: finite(snap.RootBound),
				Nodes:     snap.Nodes,
			}
			for i, v := range mr.X {
				mr.X[i] = finite(v)
			}
			for _, f := range snap.BestPath {
				mr.Path = append(mr.Path, checkpoint.Fixing{Var: f.Var, LB: finite(f.LB), UB: finite(f.UB)})
			}
			// Best-effort: a full journal disk must not fail the solve. The
			// recorder remembers the error for end-of-run reporting.
			//fragvet:ignore errdrop — journaling is best-effort by design: the recorder retains the failure for end-of-run reporting (SaveErr), and a full journal disk must not abort the solve
			_ = rec.RecordMIP(id, mr)
		}
	}
	if start := sp.dive(ix, opt.LP); start != nil {
		opt.Starts = append(opt.Starts, start)
	}
	for _, hint := range hints {
		if hint == nil {
			continue
		}
		prop := make([]float64, p.NumVars)
		//fragvet:ignore rangemaporder — each query's column set is disjoint; prop[col] writes never overlap across keys
		for j, row := range hint {
			cols, ok := ix.y[j]
			if !ok {
				continue
			}
			for bb, on := range row {
				if bb < len(cols) && on {
					prop[cols[bb]] = 1
				}
			}
		}
		opt.Starts = append(opt.Starts, prop)
	}
	tr, trErr := sp.newTrimmer(ix, opt.LP)
	if trErr == nil {
		classes, keyW := sp.symClasses(), sp.symKeyWeights()
		// Compress every proposal, then restore the canonical subnode
		// order the symmetry rows expect.
		for i, start := range opt.Starts {
			start = tr.trim(start)
			sp.canonicalize(start, ix, classes, keyW)
			opt.Starts[i] = start
		}
		round := opt.Rounding
		opt.Rounding = func(x []float64) []float64 {
			out := round(x)
			if out == nil {
				return nil
			}
			out = tr.trim(out)
			sp.canonicalize(out, ix, classes, keyW)
			return out
		}
	}
	// Branch on the y variables of the heaviest queries first: their
	// placement decides most of the memory and balance structure.
	opt.Priority = make([]float64, p.NumVars)
	for _, j := range sp.flexQ {
		load := sp.expectedLoad(j)
		for _, col := range ix.y[j] {
			opt.Priority[col] = load
		}
	}
	res, err := mip.Solve(p, intVars, opt)
	if err != nil {
		return nil, fmt.Errorf("core: subproblem MIP: %v (%w)", err, errSolverFailure)
	}
	switch res.Status {
	case mip.StatusOptimal, mip.StatusFeasible:
	case mip.StatusInfeasible:
		return nil, fmt.Errorf("core: subproblem MIP infeasible (this indicates an internal modeling bug): %w", ErrInfeasible)
	default:
		return nil, fmt.Errorf("core: subproblem MIP ended with status %v and no incumbent (%w); increase the time or node budget", res.Status, errSolverFailure)
	}
	// Local-search pass: compress the incumbent's coverage before decoding.
	// (A proven-optimal incumbent yields no removals; budget-terminated
	// ones often do.)
	if trErr == nil {
		res.X = tr.trim(res.X)
	}
	return sp.decode(ix, res), nil
}

// decode turns a MIP solution vector into runnable sets, derived fragment
// placements, and per-subnode shares. Fragment placement is re-derived from
// the integral y (and the fixed queries) rather than read from x, which
// guards against harmless fractional x on zero-size fragments.
func (sp *subproblem) decode(ix *indices, res *mip.Result) *solution {
	b := ix.b
	sol := &solution{
		yes:     make(map[int][]bool, len(sp.flexQ)),
		z:       make(map[[2]int][]float64, len(ix.z)),
		l:       res.X[ix.l],
		gap:     math.Max(0, res.Obj-res.Bound),
		nodes:   res.Nodes,
		lpiters: res.LPIters,
		exact:   res.Exact && res.Status == mip.StatusOptimal,
		status:  res.Status,
	}
	if res.Status == mip.StatusOptimal {
		sol.outcome = OutcomeOptimal
	} else {
		sol.outcome = OutcomeFeasible
	}
	need := make([][]bool, b)
	for bb := range need {
		need[bb] = make([]bool, len(sp.w.Fragments))
	}
	for _, j := range sp.flexQ {
		runnable := make([]bool, b)
		for bb, col := range ix.y[j] {
			if res.X[col] > 0.5 {
				runnable[bb] = true
				for _, i := range sp.w.Queries[j].Fragments {
					need[bb][i] = true
				}
			}
		}
		sol.yes[j] = runnable
	}
	if sp.hasFixed {
		for _, j := range sp.fixedQ {
			if !sp.fixedRuns(j) {
				continue
			}
			for _, i := range sp.w.Queries[j].Fragments {
				need[0][i] = true
			}
		}
	}
	for key, cols := range ix.z {
		zs := make([]float64, b)
		for bb, col := range cols {
			if v := res.X[col]; v > 1e-9 {
				zs[bb] = v
			}
		}
		sol.z[key] = zs
	}
	sol.frags = make([][]int, b)
	for bb := 0; bb < b; bb++ {
		for i, n := range need[bb] {
			if n {
				sol.frags[bb] = append(sol.frags[bb], i)
			}
		}
	}
	return sol
}

// BuildRootLP exposes the root-subproblem LP for diagnostics and tests: the
// full model (3)-(7) for K equal subnodes, no clustering. It returns the
// problem and the column of the load limit L.
func BuildRootLP(w *model.Workload, ss *model.ScenarioSet, k int) (*simplex.Problem, int, error) {
	if err := ss.Validate(w); err != nil {
		return nil, 0, err
	}
	active := activeQueries(w, ss)
	shares := make([][]float64, ss.S())
	for s := range shares {
		shares[s] = make([]float64, len(w.Queries))
		for _, j := range active {
			shares[s][j] = 1
		}
	}
	activeFrag := make([]bool, len(w.Fragments))
	for _, j := range active {
		for _, i := range w.Queries[j].Fragments {
			activeFrag[i] = true
		}
	}
	weights := make([]float64, k)
	for b := range weights {
		weights[b] = 1 / float64(k)
	}
	sp := &subproblem{
		w: w, ss: ss, costs: ss.TotalCosts(w), k: k, vNorm: w.AccessedDataSize(ss.Frequencies...),
		alpha: 1000, activeFrag: activeFrag, flexQ: active, shares: shares,
		weights: weights, hasFixed: true,
	}
	p, ix, _ := sp.build(true)
	return p, ix.l, nil
}
