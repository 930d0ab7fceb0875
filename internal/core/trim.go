package core

import (
	"math"
	"sort"

	"fragalloc/internal/simplex"
)

// trimmer implements the local-search pass that compresses integral
// solutions of a subproblem: for each query placement y_{j,b} = 1 it checks
// whether removing the placement (a) frees fragments on subnode b that no
// other placed query needs, and (b) still admits a routing of all inherited
// shares with the worst normalized load not exceeding the solution's. The
// check solves a small routing LP (variables z and L only) warm-started
// across candidates, so a full trim pass over hundreds of placements takes
// milliseconds.
//
// The trimmer upgrades both the dive proposal (whose upward rounding
// over-covers by construction) and the branch-and-bound incumbent.
type trimmer struct {
	sp *subproblem
	ix *indices

	solver *simplex.Solver
	// zcol[key][b] is the routing-LP column of main z column ix.z[key][b];
	// identical layout, different problem.
	zcol map[[2]int][]int
	lcol int
}

// newTrimmer builds the routing LP: minimize L subject to the balance rows
// (6) and conservation rows (7) of the subproblem, with the z upper bounds
// standing in for the linking constraints (5) — they are tightened to 0
// when a placement is removed.
func (sp *subproblem) newTrimmer(ix *indices, lp simplex.Options) (*trimmer, error) {
	p := &simplex.Problem{}
	tr := &trimmer{sp: sp, ix: ix, zcol: make(map[[2]int][]int, len(ix.z))}
	tr.lcol = p.AddVar(0, math.Inf(1), 1)
	// Lay the z columns out in sorted key order: iterating the map here
	// would make the LP's variable order — and with it the vertex the
	// simplex picks among degenerate optima — differ between runs, leaking
	// nondeterminism into which trims get certified.
	keys := make([][2]int, 0, len(ix.z))
	for key := range ix.z {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, key := range keys {
		j, s := key[0], key[1]
		cols := make([]int, ix.b)
		for bb := 0; bb < ix.b; bb++ {
			cols[bb] = p.AddVar(0, sp.shares[s][j], 0)
		}
		tr.zcol[key] = cols
	}
	// (6) balance per (subnode, scenario). Rows walk the same sorted key
	// order as the columns: both the row sequence and the coefficient order
	// within a row steer pivot tie-breaks, so map iteration here would
	// reintroduce the run-to-run drift the sort above removes.
	for bb := 0; bb < ix.b; bb++ {
		for s := 0; s < sp.ss.S(); s++ {
			var idx []int
			var coef []float64
			for _, key := range keys {
				j := key[0]
				if key[1] != s {
					continue
				}
				c := sp.ss.Frequencies[s][j] * sp.w.Queries[j].Cost / (sp.costs[s] * sp.weights[bb])
				if c == 0 {
					continue
				}
				idx = append(idx, tr.zcol[key][bb])
				coef = append(coef, c)
			}
			rhs := 0.0
			if bb == 0 && sp.hasFixed {
				rhs = -sp.fixedLoad(s) / sp.weights[0]
			}
			idx = append(idx, tr.lcol)
			coef = append(coef, -1)
			p.AddRow(idx, coef, simplex.LE, rhs)
		}
	}
	// (7) conservation per (query, scenario).
	for _, key := range keys {
		j, s := key[0], key[1]
		cols := tr.zcol[key]
		coef := make([]float64, len(cols))
		for t := range coef {
			coef[t] = 1
		}
		p.AddRow(cols, coef, simplex.EQ, sp.shares[s][j])
	}
	var err error
	tr.solver, err = simplex.NewSolver(p, lp)
	return tr, err
}

// setY applies an integral y assignment to the routing LP's z bounds.
func (tr *trimmer) setY(yOn func(j, bb int) bool) {
	for key, cols := range tr.zcol {
		j, s := key[0], key[1]
		for bb, col := range cols {
			if yOn(j, bb) {
				tr.solver.SetBound(col, 0, tr.sp.shares[s][j])
			} else {
				tr.solver.SetBound(col, 0, 0)
			}
		}
	}
}

// trim improves an integral solution vector in place: it removes redundant
// placements and rewrites the y, z, and L entries of x to the trimmed
// optimum. It returns x for convenience; on any LP trouble the input is
// returned unchanged.
func (tr *trimmer) trim(x []float64) []float64 {
	sp, ix := tr.sp, tr.ix
	on := make(map[int][]bool, len(sp.flexQ)) // query -> subnode placement
	placed := make(map[int]int, len(sp.flexQ))
	for _, j := range sp.flexQ {
		row := make([]bool, ix.b)
		for bb, col := range ix.y[j] {
			if x[col] > 0.5 {
				row[bb] = true
				placed[j]++
			}
		}
		on[j] = row
	}
	// Fragment need-counts per subnode; forced clustering fragments on
	// subnode 0 are pinned with a sentinel count.
	counts := make([][]int, ix.b)
	for bb := range counts {
		counts[bb] = make([]int, len(sp.w.Fragments))
	}
	for _, j := range sp.flexQ {
		for bb, isOn := range on[j] {
			if !isOn {
				continue
			}
			for _, i := range sp.w.Queries[j].Fragments {
				counts[bb][i]++
			}
		}
	}
	if sp.hasFixed {
		for _, j := range sp.fixedQ {
			if !sp.fixedRuns(j) {
				continue
			}
			for _, i := range sp.w.Queries[j].Fragments {
				counts[0][i] += 1 << 30
			}
		}
	}

	// Baseline routing: the load target the trim must not exceed.
	tr.setY(func(j, bb int) bool { return on[j][bb] })
	res := tr.solver.ReSolveDual()
	if res.Status != simplex.StatusOptimal {
		return x
	}
	target := math.Max(1, res.Obj) + 1e-7

	saving := func(j, bb int) float64 {
		var s float64
		for _, i := range sp.w.Queries[j].Fragments {
			if counts[bb][i] == 1 {
				s += sp.w.Fragments[i].Size
			}
		}
		return s
	}

	type cand struct {
		j, bb int
		save  float64
	}
	for round := 0; round < 6; round++ {
		var cands []cand
		for _, j := range sp.flexQ {
			if placed[j] <= 1 {
				continue
			}
			for bb, isOn := range on[j] {
				if !isOn {
					continue
				}
				if s := saving(j, bb); s > 0 {
					cands = append(cands, cand{j, bb, s})
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		sort.SliceStable(cands, func(a, b int) bool {
			//fragvet:ignore floatcmp — sort comparator: the exact != keeps the ordering antisymmetric and transitive; a tolerance would not
			if cands[a].save != cands[b].save {
				return cands[a].save > cands[b].save
			}
			if cands[a].j != cands[b].j {
				return cands[a].j < cands[b].j
			}
			return cands[a].bb < cands[b].bb
		})
		improved := false
		for _, c := range cands {
			if placed[c.j] <= 1 || !on[c.j][c.bb] || saving(c.j, c.bb) <= 0 {
				continue
			}
			// Tentatively remove the placement.
			for s := 0; s < sp.ss.S(); s++ {
				if cols, ok := tr.zcol[[2]int{c.j, s}]; ok {
					tr.solver.SetBound(cols[c.bb], 0, 0)
				}
			}
			res := tr.solver.ReSolveDual()
			if res.Status == simplex.StatusOptimal && res.Obj <= target {
				on[c.j][c.bb] = false
				placed[c.j]--
				for _, i := range sp.w.Queries[c.j].Fragments {
					counts[c.bb][i]--
				}
				improved = true
				continue
			}
			// Revert.
			for s := 0; s < sp.ss.S(); s++ {
				if cols, ok := tr.zcol[[2]int{c.j, s}]; ok {
					tr.solver.SetBound(cols[c.bb], 0, sp.shares[s][c.j])
				}
			}
		}
		if !improved {
			break
		}
	}

	// Final routing at the trimmed placement; write everything back.
	tr.setY(func(j, bb int) bool { return on[j][bb] })
	res = tr.solver.ReSolveDual()
	if res.Status != simplex.StatusOptimal || res.Obj > target {
		return x
	}
	// The simplex can report StatusOptimal for a point that violates its own
	// rows (ROADMAP item 4a). x entered with conservation (7) intact, so a
	// routing that breaks it must not overwrite x.
	for key, cols := range tr.zcol {
		var sum float64
		for _, col := range cols {
			sum += res.X[col]
		}
		if math.Abs(sum-sp.shares[key[1]][key[0]]) > 1e-6 {
			return x
		}
	}
	for _, j := range sp.flexQ {
		for bb, col := range ix.y[j] {
			if on[j][bb] {
				x[col] = 1
			} else {
				x[col] = 0
			}
		}
	}
	//fragvet:ignore rangemaporder — trim and main LP columns pair one-to-one per key; x[main[bb]] writes are disjoint across keys
	for key, cols := range tr.zcol {
		main := ix.z[key]
		for bb, col := range cols {
			x[main[bb]] = res.X[col]
		}
	}
	x[ix.l] = res.X[tr.lcol]
	// x (fragment) entries are re-derived from y by decode; set them for
	// objective consistency anyway.
	for fi, i := range ix.frags {
		for bb := 0; bb < ix.b; bb++ {
			col := ix.x[fi][bb]
			need := counts[bb][i] > 0
			if x[col] < 1 && need {
				x[col] = 1
			}
			if !need && x[col] > 0 && sp.w.Fragments[i].Size > 0 {
				// Keep forced lower bounds intact.
				if !(bb == 0 && sp.hasFixed && counts[0][i] >= 1<<30) {
					x[col] = 0
				}
			}
		}
	}
	return x
}
