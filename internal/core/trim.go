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
	ix *indices // layout of the subproblem LP whose solutions are trimmed

	solver *simplex.Solver
	// rx lays out the routing LP: L first, then the z columns in the order
	// ix has them, so route r, subnode bb pairs ix.z(r, bb) with rx.z(r, bb).
	rx indices
}

// newTrimmer builds the routing LP: minimize L subject to the balance rows
// (6) and conservation rows (7) of the subproblem, with the z upper bounds
// standing in for the linking constraints (5) — they are tightened to 0
// when a placement is removed.
func (sp *subproblem) newTrimmer(ix *indices, lp simplex.Options) (*trimmer, error) {
	p := &simplex.Problem{}
	tr := &trimmer{sp: sp, ix: ix, rx: indices{b: ix.b}}
	tr.rx.l = p.AddVar(0, math.Inf(1), 1)
	tr.rx.z0 = p.NumVars
	for _, rt := range sp.routes {
		for bb := 0; bb < ix.b; bb++ {
			p.AddVar(0, sp.shares[rt.s][rt.j], 0)
		}
	}
	sp.addBalance(p, &tr.rx)
	sp.addConservation(p, &tr.rx)
	var err error
	tr.solver, err = simplex.NewSolver(p, lp)
	return tr, err
}

// setY applies an integral y assignment (by flexQ position) to the routing
// LP's z bounds.
func (tr *trimmer) setY(on [][]bool) {
	for q, row := range on {
		for bb, isOn := range row {
			tr.setRoutes(q, bb, isOn)
		}
	}
}

// setRoutes opens (to the inherited share) or closes the routing LP's z
// columns of flexQ position q on subnode bb.
func (tr *trimmer) setRoutes(q, bb int, open bool) {
	sp := tr.sp
	S := sp.ss.S()
	for s := 0; s < S; s++ {
		r := sp.routeAt[q*S+s]
		if r < 0 {
			continue
		}
		ub := 0.0
		if open {
			ub = sp.shares[s][sp.flexQ[q]]
		}
		tr.solver.SetBound(tr.rx.z(r, bb), 0, ub)
	}
}

// trim improves an integral solution vector in place: it removes redundant
// placements and rewrites the y, z, and L entries of x to the trimmed
// optimum. It returns x for convenience; on any LP trouble the input is
// returned unchanged.
func (tr *trimmer) trim(x []float64) []float64 {
	sp, ix := tr.sp, tr.ix
	on := make([][]bool, len(sp.flexQ)) // placement per flexQ position and subnode
	placed := make([]int, len(sp.flexQ))
	for q := range sp.flexQ {
		on[q] = make([]bool, ix.b)
		for bb := range on[q] {
			if x[ix.y(q, bb)] > 0.5 {
				on[q][bb] = true
				placed[q]++
			}
		}
	}
	// Fragment need-counts per subnode; forced clustering fragments on
	// subnode 0 are pinned with a sentinel count.
	counts := make([][]int, ix.b)
	for bb := range counts {
		counts[bb] = make([]int, len(sp.w.Fragments))
	}
	for q, j := range sp.flexQ {
		for bb, isOn := range on[q] {
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
	tr.setY(on)
	res := tr.solver.ReSolveDual()
	if res.Status != simplex.StatusOptimal {
		return x
	}
	target := math.Max(1, res.Obj) + 1e-7

	saving := func(q, bb int) float64 {
		var s float64
		for _, i := range sp.w.Queries[sp.flexQ[q]].Fragments {
			if counts[bb][i] == 1 {
				s += sp.w.Fragments[i].Size
			}
		}
		return s
	}

	type cand struct {
		q, bb int // flexQ position, subnode
		save  float64
	}
	for round := 0; round < 6; round++ {
		var cands []cand
		for q := range sp.flexQ {
			if placed[q] <= 1 {
				continue
			}
			for bb, isOn := range on[q] {
				if !isOn {
					continue
				}
				if s := saving(q, bb); s > 0 {
					cands = append(cands, cand{q, bb, s})
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
			if cands[a].q != cands[b].q {
				return cands[a].q < cands[b].q
			}
			return cands[a].bb < cands[b].bb
		})
		improved := false
		for _, c := range cands {
			if placed[c.q] <= 1 || !on[c.q][c.bb] || saving(c.q, c.bb) <= 0 {
				continue
			}
			// Tentatively remove the placement.
			tr.setRoutes(c.q, c.bb, false)
			res := tr.solver.ReSolveDual()
			if res.Status == simplex.StatusOptimal && res.Obj <= target {
				on[c.q][c.bb] = false
				placed[c.q]--
				for _, i := range sp.w.Queries[sp.flexQ[c.q]].Fragments {
					counts[c.bb][i]--
				}
				improved = true
				continue
			}
			tr.setRoutes(c.q, c.bb, true) // revert
		}
		if !improved {
			break
		}
	}

	// Final routing at the trimmed placement; write everything back.
	tr.setY(on)
	res = tr.solver.ReSolveDual()
	if res.Status != simplex.StatusOptimal || res.Obj > target {
		return x
	}
	// The simplex can report StatusOptimal for a point that violates its own
	// rows (ROADMAP item 4a). x entered with conservation (7) intact, so a
	// routing that breaks it must not overwrite x.
	for r, rt := range sp.routes {
		var sum float64
		for bb := 0; bb < ix.b; bb++ {
			sum += res.X[tr.rx.z(r, bb)]
		}
		if math.Abs(sum-sp.shares[rt.s][rt.j]) > 1e-6 {
			return x
		}
	}
	for q := range sp.flexQ {
		for bb, isOn := range on[q] {
			if isOn {
				x[ix.y(q, bb)] = 1
			} else {
				x[ix.y(q, bb)] = 0
			}
		}
	}
	for r := range sp.routes {
		for bb := 0; bb < ix.b; bb++ {
			x[ix.z(r, bb)] = res.X[tr.rx.z(r, bb)]
		}
	}
	x[ix.l] = res.X[tr.rx.l]
	// x (fragment) entries are re-derived from y by decode; set them for
	// objective consistency anyway.
	for fi, i := range ix.frags {
		for bb := 0; bb < ix.b; bb++ {
			col := ix.x(fi, bb)
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
