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
// Everything the model indexes by query or by (query, scenario) is held by
// position: per-query data is parallel to flexQ, per-route data parallel to
// routes. Both orders are ascending — the order the LP lays its y and z
// columns out in and the order the journal stores Yes and Z in — so no
// consumer looks anything up by key or sorts before it iterates.
//
// Ownership: a subproblem is built by one driver.solve call and solved on
// one goroutine; its solve constructs private simplex/MIP solvers (which
// copy the problem), so concurrent solves of distinct subproblems share
// nothing mutable. The workload, scenario set, costs, inherited shares and
// the tables index derives from them are shared read-only across
// subproblems; the only fields driver.solve sets after construction are
// weights and classes, through split (see clone).
type subproblem struct {
	w     *model.Workload
	ss    *model.ScenarioSet
	costs []float64 // C_s, global scenario costs (shared across levels)
	k     int       // global node count
	vNorm float64   // V, global accessed data size (objective normalizer)

	activeFrag []bool      // x̄: fragments available to this subproblem
	flexQ      []int       // active queries assignable by the LP, ascending
	fixedQ     []int       // partial-clustering queries pinned to subnode 0
	shares     [][]float64 // z̄[s][query]: inherited share per scenario
	hasFixed   bool        // subnode 0 contains global leaf 0

	routes  []route   // the (flexible query, scenario) pairs that carry load, ascending
	routeAt []int     // routeAt[q·S+s]: position of that pair in routes, or -1
	load    []float64 // expected load per flexQ position
	byLoad  []int     // flexQ positions, heaviest first, ties on the lower query
	symW    []float64 // symmetry-key weight 2^-rank per flexQ position; 0 past float precision

	weights []float64 // w_b = (leaves of subnode b)/K
	classes [][]int   // interchangeable subnodes under weights
}

// route is one z̄_{j,s} > 0 that the LP splits over the subnodes.
type route struct {
	q    int // position of the query in flexQ
	j, s int // query ID, scenario
}

// index derives the positional tables from flexQ and shares. Queries are
// ranked by expected load with a stable sort, so equal loads keep ascending
// query order.
func (sp *subproblem) index() *subproblem {
	S := sp.ss.S()
	sp.routeAt = make([]int, len(sp.flexQ)*S)
	sp.load = make([]float64, len(sp.flexQ))
	sp.byLoad = make([]int, len(sp.flexQ))
	for q, j := range sp.flexQ {
		for s := 0; s < S; s++ {
			sp.routeAt[q*S+s] = -1
			if sp.shares[s][j] > 0 && sp.ss.Frequencies[s][j] > 0 {
				sp.routeAt[q*S+s] = len(sp.routes)
				sp.routes = append(sp.routes, route{q: q, j: j, s: s})
			}
		}
		sp.load[q] = sp.queryLoad(j) / float64(S)
		sp.byLoad[q] = q
	}
	sort.SliceStable(sp.byLoad, func(a, b int) bool { return sp.load[sp.byLoad[a]] > sp.load[sp.byLoad[b]] })
	sp.symW = make([]float64, len(sp.flexQ))
	for rank, q := range sp.byLoad {
		if rank >= 45 {
			break
		}
		sp.symW[q] = math.Pow(0.5, float64(rank))
	}
	return sp
}

// split prepares sp for the LP that spec asks for at this level: one
// subnode per child, weighted by the child's leaves — for an exact group,
// one per final node — and among them the classes of interchangeable
// subnodes: equal weight, and not the clustering subnode 0 (whose pinned
// load makes it distinguishable).
func (sp *subproblem) split(spec *ChunkSpec) {
	if len(spec.Children) == 0 {
		sp.weights = make([]float64, spec.Leaves)
		for b := range sp.weights {
			sp.weights[b] = 1 / float64(sp.k)
		}
	} else {
		sp.weights = make([]float64, len(spec.Children))
		for b, c := range spec.Children {
			sp.weights[b] = float64(c.Leaves) / float64(sp.k)
		}
	}
	sp.classes = nil
	start := 0
	if sp.hasFixed {
		start = 1
	}
	var cur []int
	flush := func() {
		if len(cur) > 1 {
			sp.classes = append(sp.classes, cur)
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
}

// clone returns a copy of sp that is safe to solve concurrently with uses
// of the original: driver.solve splits the copy, never sp, while the
// read-only inputs and index's tables stay shared.
func (sp *subproblem) clone() *subproblem {
	cp := *sp
	return &cp
}

// indices is the column layout of a subproblem LP: x by fragment × subnode,
// then y by flexQ position × subnode, then z by route × subnode, then L.
type indices struct {
	b      int   // number of subnodes
	frags  []int // active fragment IDs, in column order
	y0, z0 int   // first y column, first z column
	l      int
}

func (ix *indices) x(fi, bb int) int { return fi*ix.b + bb }
func (ix *indices) y(q, bb int) int  { return ix.y0 + q*ix.b + bb }
func (ix *indices) z(r, bb int) int  { return ix.z0 + r*ix.b + bb }

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
	ix := &indices{b: b}
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
	fragCol := make([]int, len(sp.w.Fragments)) // fragment ID -> column base
	for i := range fragCol {
		fragCol[i] = -1
	}
	for fi, i := range ix.frags {
		fragCol[i] = fi
		for bb := 0; bb < b; bb++ {
			lb := 0.0
			if bb == 0 && forced[i] {
				lb = 1
			}
			p.AddVar(lb, 1, sp.w.Fragments[i].Size/sp.vNorm)
		}
	}

	// y variables (binary) for flexible queries.
	ix.y0 = p.NumVars
	intVars := make([]int, 0, len(sp.flexQ)*b)
	for range sp.flexQ {
		for bb := 0; bb < b; bb++ {
			intVars = append(intVars, p.AddVar(0, 1, 0))
		}
	}

	// z variables, one per route and subnode.
	ix.z0 = p.NumVars
	for _, rt := range sp.routes {
		for bb := 0; bb < b; bb++ {
			p.AddVar(0, sp.shares[rt.s][rt.j], 0)
		}
	}

	// L: worst normalized node load over subnodes and scenarios. Perfect
	// balance corresponds to L = 1 (each subnode b carries exactly w_b of a
	// scenario's cost); the α-penalty drives solutions toward it.
	ix.l = p.AddVar(0, math.Inf(1), alpha)

	// (4) coverage: Σ_{i∈q_j} x_{i,b} − |q_j|·y_{j,b} ≥ 0.
	for q, j := range sp.flexQ {
		frags := sp.w.Queries[j].Fragments
		for bb := 0; bb < b; bb++ {
			idx := make([]int, 0, len(frags)+1)
			coef := make([]float64, 0, len(frags)+1)
			for _, i := range frags {
				idx = append(idx, ix.x(fragCol[i], bb))
				coef = append(coef, 1)
			}
			idx = append(idx, ix.y(q, bb))
			coef = append(coef, -float64(len(frags)))
			p.AddRow(idx, coef, simplex.GE, 0)
		}
	}

	// (5) linking: z_{j,b,s} ≤ y_{j,b}.
	for r, rt := range sp.routes {
		for bb := 0; bb < b; bb++ {
			p.AddRow([]int{ix.z(r, bb), ix.y(rt.q, bb)}, []float64{1, -1}, simplex.LE, 0)
		}
	}

	sp.addBalance(p, ix)

	// Symmetry breaking (an implementation refinement over the paper's
	// plain MIP): subnodes with equal weight — and without the pinned
	// clustering load of subnode 0 — are interchangeable, which makes plain
	// branch and bound revisit permuted copies of the same allocation.
	// Within each class of interchangeable subnodes we require the weighted
	// query-incidence key Σ_j 2^{-rank(j)}·y_{j,b} to be non-increasing in
	// b. Every feasible solution has a permutation satisfying this, so the
	// optimum is preserved while the permuted duplicates are cut off.
	for _, cls := range sp.classes {
		if !withSymmetry {
			break
		}
		for t := 0; t+1 < len(cls); t++ {
			var idx []int
			var coef []float64
			for q, wgt := range sp.symW {
				if wgt == 0 {
					continue
				}
				idx = append(idx, ix.y(q, cls[t]), ix.y(q, cls[t+1]))
				coef = append(coef, wgt, -wgt)
			}
			if idx != nil {
				p.AddRow(idx, coef, simplex.GE, 0)
			}
		}
	}

	sp.addConservation(p, ix)
	return p, ix, intVars
}

// addBalance appends rows (6), one per (subnode, scenario):
// Σ_j f_{j,s}·c_j/(C_s·w_b)·z_{j,b,s} − L ≤ −fixedLoad_{b,s}. It serves the
// subproblem LP and the trimmer's routing LP alike; only ix.z0 and ix.l
// differ between them.
func (sp *subproblem) addBalance(p *simplex.Problem, ix *indices) {
	S := sp.ss.S()
	for bb := 0; bb < ix.b; bb++ {
		for s := 0; s < S; s++ {
			var idx []int
			var coef []float64
			for q, j := range sp.flexQ {
				r := sp.routeAt[q*S+s]
				if r < 0 {
					continue
				}
				c := sp.ss.Frequencies[s][j] * sp.w.Queries[j].Cost / (sp.costs[s] * sp.weights[bb])
				if c == 0 {
					continue
				}
				idx = append(idx, ix.z(r, bb))
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
}

// addConservation appends rows (7), one per route: Σ_b z_{j,b,s} = z̄_{j,s}.
func (sp *subproblem) addConservation(p *simplex.Problem, ix *indices) {
	idx := make([]int, ix.b)
	coef := make([]float64, ix.b)
	for bb := range coef {
		coef[bb] = 1
	}
	for r, rt := range sp.routes {
		for bb := range idx {
			idx[bb] = ix.z(r, bb)
		}
		p.AddRow(idx, coef, simplex.EQ, sp.shares[rt.s][rt.j])
	}
}

// queryLoad returns query j's share of the scenario costs, weighted by its
// inherited share and summed over the scenarios.
func (sp *subproblem) queryLoad(j int) float64 {
	var load float64
	for s := 0; s < sp.ss.S(); s++ {
		load += sp.shares[s][j] * sp.ss.Frequencies[s][j] * sp.w.Queries[j].Cost / sp.costs[s]
	}
	return load
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
	return func(x []float64) []float64 {
		out := append([]float64(nil), x...)
		for q := range sp.flexQ {
			best, bestVal := 0, -1.0
			for bb := 0; bb < ix.b; bb++ {
				col := ix.y(q, bb)
				if x[col] > bestVal {
					best, bestVal = bb, x[col]
				}
				if x[col] >= 0.5 {
					out[col] = 1
				} else {
					out[col] = 0
				}
			}
			out[ix.y(q, best)] = 1
		}
		sp.canonicalize(out, ix)
		return out
	}
}

// canonicalize permutes the proposed y columns within each symmetric class
// so the incidence keys are non-increasing, making the proposal consistent
// with the symmetry-breaking rows.
func (sp *subproblem) canonicalize(out []float64, ix *indices) {
	key := make([]float64, ix.b)
	for _, cls := range sp.classes {
		for _, b := range cls {
			key[b] = 0
			for q, wgt := range sp.symW {
				if wgt != 0 {
					key[b] += wgt * out[ix.y(q, b)]
				}
			}
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
		vals := make([]float64, len(cls))
		for q := range sp.flexQ {
			for t, b := range perm {
				vals[t] = out[ix.y(q, b)]
			}
			for t, b := range cls {
				out[ix.y(q, b)] = vals[t]
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
// first incumbent (mip.Options.Starts).
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
	for _, q := range sp.byLoad {
		best, bestVal := 0, -1.0
		for bb := 0; bb < ix.b; bb++ {
			if v := res.X[ix.y(q, bb)]; v > bestVal {
				best, bestVal = bb, v
			}
		}
		// Fix the confident ones to 1 and the negligible ones to 0; leave
		// mid-range values free so later queries — and the routing of this
		// one — keep the flexibility to balance. (Fixing everything below
		// 1/2 to 0 concentrates heavy queries on single subnodes and
		// wrecks the load limit L.)
		for bb := 0; bb < ix.b; bb++ {
			col := ix.y(q, bb)
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
	for col := ix.y0; col < ix.z0; col++ {
		if out[col] >= 0.05 {
			out[col] = 1
		} else {
			out[col] = 0
		}
	}
	sp.canonicalize(out, ix)
	return out
}

// solution is the decoded outcome of one subproblem solve. yes and z are in
// the journal's own shape and order, so a record is written from them and
// replayed into them without conversion.
type solution struct {
	yes   []checkpoint.YesRow // runnable per subnode, one row per flexQ entry
	z     []checkpoint.Route  // share per subnode of every routed (query, scenario), ascending
	frags [][]int             // derived fragment sets per subnode (sorted)
	l     float64             // normalized worst load
	// gap is the absolute objective gap (incumbent − proven bound). Since
	// the objective is W/V + αL and optima balance (L = 1) like the
	// incumbents, it bounds the memory suboptimality in W/V units.
	gap     float64
	nodes   int
	lpiters int
	exact   bool
	// outcome classifies the solve for the failure policy; extraBytes is
	// nonzero only for degraded solutions (allocated bytes beyond the
	// single-copy floor, feeding Result.DegradedDelta).
	outcome    Outcome
	extraBytes float64
}

// solve builds and solves the subproblem MIP. Each non-nil hint proposes an
// additional starting placement (runnable per subnode, by flexQ position; a
// nil row proposes nothing for its query), typically from a hierarchical
// decomposition pre-solve, the greedy baseline, or a resumed journal
// record. ck, when non-nil, wires the durable journal into the search: a
// journaled in-flight incumbent from a crashed run seeds the restarted MIP,
// and the search's periodic Checkpoint callback writes fresh incumbents back
// under the same subproblem id.
func (sp *subproblem) solve(opt mip.Options, ck *subCheckpoint, hints ...[][]bool) (*solution, error) {
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
			mr := &checkpoint.MIPRecord{X: snap.X}
			for i, v := range mr.X {
				mr.X[i] = finite(v)
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
		for q, row := range hint {
			for bb, on := range row {
				if on {
					prop[ix.y(q, bb)] = 1
				}
			}
		}
		opt.Starts = append(opt.Starts, prop)
	}
	tr, trErr := sp.newTrimmer(ix, opt.LP)
	if trErr == nil {
		// Compress every proposal, then restore the canonical subnode
		// order the symmetry rows expect.
		for i, start := range opt.Starts {
			start = tr.trim(start)
			sp.canonicalize(start, ix)
			opt.Starts[i] = start
		}
		round := opt.Rounding
		opt.Rounding = func(x []float64) []float64 {
			out := round(x)
			if out == nil {
				return nil
			}
			out = tr.trim(out)
			sp.canonicalize(out, ix)
			return out
		}
	}
	// Branch on the y variables of the heaviest queries first: their
	// placement decides most of the memory and balance structure.
	opt.Priority = make([]float64, p.NumVars)
	for q, load := range sp.load {
		for bb := 0; bb < ix.b; bb++ {
			opt.Priority[ix.y(q, bb)] = load
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
	sol := &solution{
		yes:     make([]checkpoint.YesRow, len(sp.flexQ)),
		z:       make([]checkpoint.Route, len(sp.routes)),
		l:       res.X[ix.l],
		gap:     math.Max(0, res.Obj-res.Bound),
		nodes:   res.Nodes,
		lpiters: res.LPIters,
		exact:   res.Exact && res.Status == mip.StatusOptimal,
	}
	if res.Status == mip.StatusOptimal {
		sol.outcome = OutcomeOptimal
	} else {
		sol.outcome = OutcomeFeasible
	}
	for q, j := range sp.flexQ {
		runnable := make([]bool, ix.b)
		for bb := range runnable {
			runnable[bb] = res.X[ix.y(q, bb)] > 0.5
		}
		sol.yes[q] = checkpoint.YesRow{Q: j, On: runnable}
	}
	for r, rt := range sp.routes {
		zs := make([]float64, ix.b)
		for bb := range zs {
			if v := res.X[ix.z(r, bb)]; v > 1e-9 {
				zs[bb] = v
			}
		}
		sol.z[r] = checkpoint.Route{Q: rt.j, S: rt.s, Shares: zs}
	}
	sol.frags = sp.fragSets(sol.yes)
	return sol
}

// fragSets derives the sorted fragment set of every subnode from a
// placement: the fragments of each query runnable there, plus on subnode 0
// those of the fixed queries that carry load.
func (sp *subproblem) fragSets(yes []checkpoint.YesRow) [][]int {
	need := make([][]bool, len(sp.weights))
	for bb := range need {
		need[bb] = make([]bool, len(sp.w.Fragments))
	}
	for _, row := range yes {
		for bb, on := range row.On {
			if on {
				for _, i := range sp.w.Queries[row.Q].Fragments {
					need[bb][i] = true
				}
			}
		}
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
	frags := make([][]int, len(need))
	for bb, row := range need {
		for i, n := range row {
			if n {
				frags[bb] = append(frags[bb], i)
			}
		}
	}
	return frags
}

// BuildRootLP exposes the root-subproblem LP for diagnostics and tests: the
// full model (3)-(7) for K equal subnodes, no clustering. It returns the
// problem and the column of the load limit L.
func BuildRootLP(w *model.Workload, ss *model.ScenarioSet, k int) (*simplex.Problem, int, error) {
	root, err := newRoot(w, ss, k, Options{})
	if err != nil {
		return nil, 0, err
	}
	root.split(Flat(k))
	p, ix, _ := root.build(true)
	return p, ix.l, nil
}
