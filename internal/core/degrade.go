package core

import (
	"math"
	"sort"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/greedy"
)

// degrade is the terminal rung of the failure policy: it produces a
// feasible — but not optimal — solution for the subproblem with the greedy
// baseline allocator instead of the MIP. Feasibility needs no solver: the
// load limit L is penalized, not constrained, so any routing that conserves
// the inherited shares (7), covers every placed query's fragments (4), and
// respects the share upper bounds (5) is a valid solution; the greedy
// heuristic supplies a reasonable one. degrade never fails: if even the
// greedy allocator errors out, a deterministic least-loaded whole-query
// assignment takes over.
//
// The cost of degrading is tracked in solution.extraBytes: the allocated
// bytes beyond the single-copy lower bound of the chosen coverage, which
// aggregates into Result.DegradedDelta (an approximate upper bound on the
// replication-factor cost of all degraded subproblems).
func (sp *subproblem) degrade() *solution {
	b := len(sp.weights)

	// Aggregate the inherited per-scenario loads into one frequency vector,
	// so the greedy shares are proportional to the load each query actually
	// carries in this subproblem.
	freq := make([]float64, len(sp.w.Queries))
	queryLoad := make([]float64, len(sp.flexQ)) // by flexQ position
	var flexLoad float64
	for q, j := range sp.flexQ {
		if load := sp.queryLoad(j); load > 0 && sp.w.Queries[j].Cost > 0 {
			freq[j] = load / sp.w.Queries[j].Cost
			queryLoad[q] = load
			flexLoad += load
		}
	}
	var fixedAgg float64
	if sp.hasFixed {
		for s := 0; s < sp.ss.S(); s++ {
			fixedAgg += sp.fixedLoad(s)
		}
	}

	// routing[q][bb] is the fraction of the inherited share of flexQ[q]
	// routed to subnode bb (rows sum to 1; nil for queries without load).
	routing := make([][]float64, len(sp.flexQ))
	if flexLoad > 0 {
		if r := sp.greedyRouting(freq, flexLoad, fixedAgg); r != nil {
			routing = r
		} else {
			routing = sp.fallbackRouting(queryLoad, fixedAgg)
		}
	}

	// Assemble the solution exactly like decode does for a MIP result.
	sol := &solution{
		yes:     make([]checkpoint.YesRow, len(sp.flexQ)),
		exact:   false,
		outcome: OutcomeDegraded,
	}
	for q, j := range sp.flexQ {
		runnable := make([]bool, b)
		for bb, share := range routing[q] {
			runnable[bb] = share > 0
		}
		sol.yes[q] = checkpoint.YesRow{Q: j, On: runnable}
	}
	for _, rt := range sp.routes {
		r := routing[rt.q]
		if r == nil {
			continue
		}
		zs := make([]float64, b)
		for bb := range zs {
			zs[bb] = sp.shares[rt.s][rt.j] * r[bb]
		}
		sol.z = append(sol.z, checkpoint.Route{Q: rt.j, S: rt.s, Shares: zs})
	}
	sol.frags = sp.fragSets(sol.yes)
	anywhere := make([]bool, len(sp.w.Fragments))
	var allocated, single float64
	for _, frags := range sol.frags {
		for _, i := range frags {
			allocated += sp.w.Fragments[i].Size
			if !anywhere[i] {
				anywhere[i] = true
				single += sp.w.Fragments[i].Size
			}
		}
	}
	sol.extraBytes = math.Max(0, allocated-single)
	// The greedy point carries no proven bound; report its memory excess
	// over the single-copy floor as the gap, in the same W/V units the MIP
	// gaps use.
	sol.gap = sol.extraBytes / sp.vNorm
	sol.l = sp.worstLoad(sol)
	return sol
}

// greedyRouting runs the weighted greedy allocator over the aggregated
// frequencies and converts its scenario-0 shares into per-query routing
// fractions. Subnode capacities are proportional to the leaf weights, with
// subnode 0's fair share reduced by the load the clustering queries already
// pin there. Returns nil if the greedy allocator fails.
func (sp *subproblem) greedyRouting(freq []float64, flexLoad, fixedAgg float64) [][]float64 {
	b := len(sp.weights)
	var wsum float64
	for _, wt := range sp.weights {
		wsum += wt
	}
	total := flexLoad + fixedAgg
	weights := make([]float64, b)
	for bb := 0; bb < b; bb++ {
		weights[bb] = sp.weights[bb] / wsum * total
	}
	weights[0] = math.Max(weights[0]-fixedAgg, 1e-6*total)
	alloc, err := greedy.AllocateWeighted(sp.w, freq, weights)
	if err != nil {
		return nil
	}
	routing := make([][]float64, len(sp.flexQ))
	for q, j := range sp.flexQ {
		if freq[j] <= 0 {
			continue
		}
		r := append([]float64(nil), alloc.Shares[0][j]...)
		var sum float64
		for _, v := range r {
			sum += v
		}
		if sum <= 0 {
			return nil // greedy dropped a loaded query; use the fallback
		}
		for bb := range r {
			r[bb] /= sum
		}
		routing[q] = r
	}
	return routing
}

// fallbackRouting is the last-resort assignment when even the greedy
// allocator fails: every loaded query goes wholly to the subnode whose
// projected relative load is smallest — heaviest queries first, ties on the
// lowest query ID and then the lowest subnode, so the result is
// deterministic.
func (sp *subproblem) fallbackRouting(queryLoad []float64, fixedAgg float64) [][]float64 {
	b := len(sp.weights)
	order := make([]int, len(sp.flexQ)) // flexQ positions
	for q := range order {
		order[q] = q
	}
	sort.SliceStable(order, func(a, c int) bool {
		//fragvet:ignore floatcmp — sort comparator: the exact != keeps the ordering antisymmetric and transitive; a tolerance would not
		if queryLoad[order[a]] != queryLoad[order[c]] {
			return queryLoad[order[a]] > queryLoad[order[c]]
		}
		return order[a] < order[c]
	})
	load := make([]float64, b)
	load[0] = fixedAgg
	routing := make([][]float64, len(order))
	for _, q := range order {
		if queryLoad[q] <= 0 {
			continue
		}
		best := 0
		for bb := 1; bb < b; bb++ {
			if (load[bb]+queryLoad[q])/sp.weights[bb] < (load[best]+queryLoad[q])/sp.weights[best] {
				best = bb
			}
		}
		load[best] += queryLoad[q]
		routing[q] = make([]float64, b)
		routing[q][best] = 1
	}
	return routing
}

// worstLoad computes the solution's worst normalized subnode load over all
// scenarios — the value the MIP's L variable would take for this routing.
// sol.z is ascending by query, so each (scenario, subnode) sum accumulates
// in ascending query order.
func (sp *subproblem) worstLoad(sol *solution) float64 {
	b := len(sp.weights)
	load := make([][]float64, sp.ss.S())
	for s := range load {
		load[s] = make([]float64, b)
	}
	for _, rt := range sol.z {
		for bb, z := range rt.Shares {
			if z != 0 {
				load[rt.S][bb] += z * sp.ss.Frequencies[rt.S][rt.Q] * sp.w.Queries[rt.Q].Cost / sp.costs[rt.S]
			}
		}
	}
	var worst float64
	for s := range load {
		if sp.hasFixed {
			load[s][0] += sp.fixedLoad(s)
		}
		for bb := range load[s] {
			worst = math.Max(worst, load[s][bb]/sp.weights[bb])
		}
	}
	return worst
}
