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
// subproblems; the only field driver.solve sets after construction is
// weights, through split (see clone).
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

	pinned  []bool    // pinned[i]: fragment i stays on subnode 0 for a fixed query that carries load
	routes  []route   // the (flexible query, scenario) pairs that carry load, ascending
	routeAt []int     // routeAt[q·S+s]: position of that pair in routes, or -1
	load    []float64 // expected load per flexQ position
	byLoad  []int     // flexQ positions, heaviest first, ties on the lower query

	weights []float64 // w_b = (leaves of subnode b)/K
}

// route is one z̄_{j,s} > 0 that the LP splits over the subnodes.
type route struct {
	q    int // position of the query in flexQ
	j, s int // query ID, scenario
}

// index derives the positional tables from flexQ and shares, and the
// fragments the fixed queries pin to subnode 0 from fixedQ. Queries are
// ranked by expected load with a stable sort, so equal loads keep ascending
// query order.
func (sp *subproblem) index() *subproblem {
	S := sp.ss.S()
	sp.pinned = make([]bool, len(sp.w.Fragments))
	for _, j := range sp.fixedQ {
		for s := 0; s < S; s++ {
			if sp.shares[s][j] > 0 && sp.ss.Frequencies[s][j] > 0 { // j carries load
				for _, i := range sp.w.Queries[j].Fragments {
					sp.pinned[i] = true
				}
				break
			}
		}
	}
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
	return sp
}

// split prepares sp for the LP that spec asks for at this level: one
// subnode per child, weighted by the child's leaves — for an exact group,
// one per final node.
func (sp *subproblem) split(spec *ChunkSpec) {
	widths := spec.subnodes()
	sp.weights = make([]float64, len(widths))
	for b, n := range widths {
		sp.weights[b] = float64(n) / float64(sp.k)
	}
}

// clone returns a copy of sp that is safe to solve concurrently with uses
// of the original: driver.solve splits the copy, never sp, while the
// read-only inputs and index's tables stay shared.
func (sp *subproblem) clone() *subproblem {
	cp := *sp
	return &cp
}

// indices is the layout of a subproblem LP: its columns x by fragment ×
// subnode, then y by flexQ position × subnode, then z by route × subnode,
// then L, and the role of each column and each row, recorded as addVar and
// addRow add them.
type indices struct {
	b      int   // number of subnodes
	frags  []int // active fragment IDs, in column order
	y0, z0 int   // first y column, first z column
	l      int

	cols, rows []checkpoint.Role // by column, by row
}

func (ix *indices) x(fi, bb int) int { return fi*ix.b + bb }
func (ix *indices) y(q, bb int) int  { return ix.y0 + q*ix.b + bb }
func (ix *indices) z(r, bb int) int  { return ix.z0 + r*ix.b + bb }

// addVar adds a column with role to p and returns its index.
func (ix *indices) addVar(p *simplex.Problem, role checkpoint.Role, lb, ub, obj float64) int {
	ix.cols = append(ix.cols, role)
	return p.AddVar(lb, ub, obj)
}

// addRow adds a row with role to p.
func (ix *indices) addRow(p *simplex.Problem, role checkpoint.Role, idx []int, coef []float64, rel simplex.Relation, rhs float64) {
	ix.rows = append(ix.rows, role)
	p.AddRow(idx, coef, rel, rhs)
}

// build constructs the MIP in the reformulated shape described in DESIGN.md:
// y binary, x continuous in [0,1] (the aggregated coverage rows (4) force x
// integral whenever y is integral), z continuous, and the balance limit L
// unbounded above so that imbalance is penalized, not forbidden.
func (sp *subproblem) build() (*simplex.Problem, *indices, []int) {
	p := &simplex.Problem{}
	b := len(sp.weights)
	ix := &indices{b: b}
	for i, active := range sp.activeFrag {
		if active {
			ix.frags = append(ix.frags, i)
		}
	}

	// x variables. Fragments pinned by fixed queries get lb=1 on subnode 0,
	// which encodes the consequence of constraint (9) directly.
	fragCol := make([]int, len(sp.w.Fragments)) // fragment ID -> column base
	for i := range fragCol {
		fragCol[i] = -1
	}
	for fi, i := range ix.frags {
		fragCol[i] = fi
		for bb := 0; bb < b; bb++ {
			lb := 0.0
			if bb == 0 && sp.pinned[i] {
				lb = 1
			}
			ix.addVar(p, checkpoint.Role{roleX, int32(i), int32(bb)}, lb, 1, sp.w.Fragments[i].Size/sp.vNorm)
		}
	}

	// y variables (binary) for flexible queries.
	ix.y0 = p.NumVars
	intVars := make([]int, 0, len(sp.flexQ)*b)
	for _, j := range sp.flexQ {
		for bb := 0; bb < b; bb++ {
			intVars = append(intVars, ix.addVar(p, checkpoint.Role{roleY, int32(j), int32(bb)}, 0, 1, 0))
		}
	}

	sp.addRoutes(p, ix)

	// L: worst normalized node load over subnodes and scenarios. Perfect
	// balance corresponds to L = 1 (each subnode b carries exactly w_b of a
	// scenario's cost); the α-penalty drives solutions toward it.
	ix.l = ix.addVar(p, checkpoint.Role{roleL}, 0, math.Inf(1), alpha)

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
			ix.addRow(p, checkpoint.Role{roleCover, int32(j), int32(bb)}, idx, coef, simplex.GE, 0)
		}
	}

	// (5) linking: z_{j,b,s} ≤ y_{j,b}.
	for r, rt := range sp.routes {
		for bb := 0; bb < b; bb++ {
			ix.addRow(p, checkpoint.Role{roleLink, int32(rt.j), int32(rt.s), int32(bb)},
				[]int{ix.z(r, bb), ix.y(rt.q, bb)}, []float64{1, -1}, simplex.LE, 0)
		}
	}

	sp.addBalance(p, ix)

	sp.addConservation(p, ix)
	return p, ix, intVars
}

// addRoutes appends the z columns, one per route and subnode, each bounded
// by the route's inherited share, and sets ix.z0. It serves the subproblem
// LP and the trimmer's routing LP alike.
func (sp *subproblem) addRoutes(p *simplex.Problem, ix *indices) {
	ix.z0 = p.NumVars
	for _, rt := range sp.routes {
		for bb := 0; bb < ix.b; bb++ {
			ix.addVar(p, checkpoint.Role{roleZ, int32(rt.j), int32(rt.s), int32(bb)}, 0, sp.shares[rt.s][rt.j], 0)
		}
	}
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
			ix.addRow(p, checkpoint.Role{roleBalance, int32(bb), int32(s)}, idx, coef, simplex.LE, rhs)
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
		ix.addRow(p, checkpoint.Role{roleConserve, int32(rt.j), int32(rt.s)}, idx, coef, simplex.EQ, sp.shares[rt.s][rt.j])
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
// y=1 on its strongest subnode plus every subnode already above 1/2.
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
		return out
	}
}

// relaxation solves the LP relaxation of the subproblem MIP p, the root of
// the dive. It starts from basis from when one is carried — the optimal
// basis of the same subproblem's previous solve, mapped by role
// (carriedBasis) — and SolveFrom solves a start it refuses again cold; the
// refusal is logged through logf. It returns the solver, the result (nil
// when no solver could be built; the dive needs its Status optimal) and
// what the start counted. The result's Iters counts every pivot the
// relaxation took, a refused start's included.
func relaxation(p *simplex.Problem, lp simplex.Options, from *simplex.Basis, logf func(string, ...any)) (*simplex.Solver, *simplex.Result, BasisStarts) {
	var starts BasisStarts
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
		return nil, nil, starts
	}
	if from == nil {
		return s, s.Solve(), starts
	}
	res := s.SolveFrom(from)
	if why := mip.CountStart(res, &starts.Dives, &starts.DivesCold); why != "" && logf != nil {
		logf("core: dive root from the carried basis %s; solving cold", why)
	}
	return s, res, starts
}

// dive is the LP-guided dive-and-fix primal heuristic: starting from the
// optimal relaxation res of solver s (see relaxation), it fixes the y row
// of one query at a time — heaviest expected load first, each subnode
// rounded to its relaxation value — re-solving the LP with the
// warm-started dual simplex after every row. The result is an integral y
// proposal of far higher quality than one-shot rounding; it seeds the
// branch and bound as its first incumbent (mip.Options.Starts). It returns
// the proposal, nil when a re-solve fails, and the pivots its re-solves
// took.
func (sp *subproblem) dive(s *simplex.Solver, res *simplex.Result, ix *indices) ([]float64, int) {
	iters := 0
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
		iters += res.Iters
		if res.Status != simplex.StatusOptimal {
			return nil, iters
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
	return out, iters
}

// solution is the outcome of one subproblem solve: the record the journal
// stores, which a resume replays as it stands, plus the work counts, the
// search's stop reason and the start it began from, which the journal does
// not keep.
type solution struct {
	checkpoint.SubRecord
	lpiters int
	starts  BasisStarts // LPs started from a basis
	stop    mip.Stop    // why the search ended; StopNone when none did
	first   string      // the start that was the incumbent when node search began; "none" when none was
}

// hint is a starting placement offered to a subproblem's search beside the
// dive's proposal: runnable per subnode, by flexQ position (a nil row
// proposes nothing for its query), under the name the split line reports
// it by when it was the search's first incumbent. A hint without rows
// proposes nothing.
type hint struct {
	name string
	rows [][]bool
}

// solve builds and solves the subproblem MIP. Each hint proposes an
// additional starting placement, typically from a hierarchical
// decomposition pre-solve, the greedy baseline, the incumbent allocation,
// or a resumed journal record. ck wires the run's journal into the search:
// the search's periodic Checkpoint callback journals its incumbent, decoded
// into the feasible record the solve would finish with, under the
// subproblem's id, and the dive root starts from the basis carried under
// that id. logf is the run's logger. p, ix and intVars are the model
// sp.build laid out. When the solve fails, the solution it returns beside
// the error holds only the work the attempt did: its LP pivots and basis
// starts.
func (sp *subproblem) solve(p *simplex.Problem, ix *indices, intVars []int, opt mip.Options, ck *subCheckpoint, logf func(string, ...any), hints ...hint) (*solution, error) {
	opt.Rounding = sp.rounding(ix)
	from := carriedBasis(ck.rec.Carried(ck.id), ix)
	lp, relax, starts := relaxation(p, opt.LP, from, logf)
	var rootBasis *simplex.Basis
	var names []string // by opt.Starts entry
	diveIters := 0
	if relax != nil {
		diveIters = relax.Iters
	}
	if relax != nil && relax.Status == simplex.StatusOptimal {
		rootBasis = lp.Basis()
		start, iters := sp.dive(lp, relax, ix)
		diveIters += iters
		if start != nil {
			opt.Starts = append(opt.Starts, start)
			names = append(names, "dive")
		}
	}
	// The MIP root is the relaxation the dive started from, so it starts
	// from that LP's optimal basis as it stands.
	opt.RootBasis = rootBasis
	var basis *checkpoint.Basis
	if rootBasis != nil {
		basis = journalBasis(rootBasis, ix)
	}
	// A search in flight journals its incumbent as the feasible record it
	// would finish with (untrimmed: a resume trims its hint like any other
	// start), so a resumed run re-solves from it.
	opt.Checkpoint = func(x []float64) {
		sol := sp.decode(ix, x, &mip.Result{Status: mip.StatusFeasible})
		sol.Basis = basis
		ck.record(logf, sol)
	}
	for _, h := range hints {
		if h.rows == nil {
			continue
		}
		prop := make([]float64, p.NumVars)
		for q, row := range h.rows {
			for bb, on := range row {
				if on {
					prop[ix.y(q, bb)] = 1
				}
			}
		}
		opt.Starts = append(opt.Starts, prop)
		names = append(names, h.name)
	}
	tr, trErr := sp.newTrimmer(ix, opt.LP)
	if trErr == nil {
		for i, start := range opt.Starts {
			opt.Starts[i] = tr.trim(start)
		}
		round := opt.Rounding
		opt.Rounding = func(x []float64) []float64 { return tr.trim(round(x)) }
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
	spent := &solution{lpiters: diveIters, starts: starts}
	if res != nil {
		spent.lpiters += res.LPIters
		spent.starts.Starts = res.Starts
	}
	if err != nil {
		return spent, fmt.Errorf("core: subproblem MIP: %v (%w)", err, errSolverFailure)
	}
	switch res.Status {
	case mip.StatusOptimal, mip.StatusFeasible:
	case mip.StatusInfeasible:
		return spent, fmt.Errorf("core: subproblem MIP infeasible (this indicates an internal modeling bug): %w", ErrInfeasible)
	default:
		return spent, fmt.Errorf("core: subproblem MIP ended with status %v and no incumbent (%w); increase the time or node budget", res.Status, errSolverFailure)
	}
	// Local-search pass: compress the incumbent's coverage before decoding.
	// (A proven-optimal incumbent yields no removals; budget-terminated
	// ones often do.)
	if trErr == nil {
		res.X = tr.trim(res.X)
	}
	sol := sp.decode(ix, res.X, res)
	sol.lpiters, sol.starts, sol.stop, sol.Basis = spent.lpiters, spent.starts, res.Stop, basis
	sol.first = "none"
	if res.First >= 0 {
		sol.first = names[res.First]
	}
	return sol, nil
}

// decode turns a MIP solution vector x into runnable sets, derived fragment
// placements, and per-subnode shares, with the outcome, gap and node count
// of res, the search that found it. Fragment placement is re-derived from
// the integral y (and the fixed queries) rather than read from x, which
// guards against harmless fractional x on zero-size fragments.
func (sp *subproblem) decode(ix *indices, x []float64, res *mip.Result) *solution {
	// Gap is the absolute objective gap (incumbent − proven bound). Since
	// the objective is W/V + αL and optima balance (L = 1) like the
	// incumbents, it bounds the memory suboptimality in W/V units.
	sol := &solution{
		SubRecord: checkpoint.SubRecord{
			Outcome: OutcomeFeasible,
			L:       x[ix.l],
			Gap:     math.Max(0, res.Obj-res.Bound),
			Nodes:   res.Nodes,
			Exact:   res.Exact && res.Status == mip.StatusOptimal,
			Yes:     make([]checkpoint.YesRow, len(sp.flexQ)),
			Z:       make([]checkpoint.Route, len(sp.routes)),
		},
	}
	if res.Status == mip.StatusOptimal {
		sol.Outcome = OutcomeOptimal
	}
	for q, j := range sp.flexQ {
		runnable := make([]bool, ix.b)
		for bb := range runnable {
			runnable[bb] = x[ix.y(q, bb)] > 0.5
		}
		sol.Yes[q] = checkpoint.YesRow{Q: j, On: runnable}
	}
	for r, rt := range sp.routes {
		zs := make([]float64, ix.b)
		for bb := range zs {
			if v := x[ix.z(r, bb)]; v > 1e-9 {
				zs[bb] = v
			}
		}
		sol.Z[r] = checkpoint.Route{Q: rt.j, S: rt.s, Shares: zs}
	}
	sol.Frags = sp.fragSets(sol.Yes)
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
	for i, pin := range sp.pinned {
		if pin {
			need[0][i] = true
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
	p, ix, _ := root.build()
	return p, ix.l, nil
}
