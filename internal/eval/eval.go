// Package eval measures how well a fixed fragment allocation copes with a
// (possibly unseen) workload scenario — the robustness yardstick of
// Section 4.2 of the reproduced paper.
//
// Given an allocation x, the executability y of every query per node is
// determined (a node can run a query iff it stores all accessed fragments).
// For a scenario's frequency vector, the minimal achievable worst-case node
// load share L̃ — the highest fraction of the scenario's total cost any node
// must process under the best possible fractional routing — is then the
// optimum of a small LP. A perfectly balanced allocation achieves
// L̃ = 1/K; the paper reports E(L̃) − 1/K and the expected relative
// throughput E((1/K)/L̃) over 100 unseen scenarios.
//
// Two independent implementations are provided: WorstLoadLP solves the
// routing LP with the simplex solver (the paper's method of fixing x in
// model (3)–(7)), and WorstLoadFlow finds L by a parametric Newton search
// over Dinic max-flows, which is much faster for repeated evaluation. They
// agree to within the search tolerance and are cross-checked in tests.
package eval

import (
	"fmt"
	"math"

	"fragalloc/internal/model"
	"fragalloc/internal/simplex"
)

// Runnable returns, for every query, the list of nodes that store all of
// the query's fragments.
func Runnable(w *model.Workload, alloc *model.Allocation) [][]int {
	out := make([][]int, len(w.Queries))
	for j := range w.Queries {
		for k := 0; k < alloc.K; k++ {
			if alloc.CanRun(&w.Queries[j], k) {
				out[j] = append(out[j], k)
			}
		}
	}
	return out
}

// loadShares returns the normalized per-query loads f_j·c_j/C for the
// scenario, or an error if the scenario carries no load.
func loadShares(w *model.Workload, freq []float64) ([]float64, error) {
	if len(freq) != len(w.Queries) {
		return nil, fmt.Errorf("eval: frequency vector has length %d, want %d", len(freq), len(w.Queries))
	}
	total := w.TotalCost(freq)
	if total <= 0 {
		return nil, fmt.Errorf("eval: scenario has zero total cost")
	}
	loads := make([]float64, len(freq))
	for j, q := range w.Queries {
		loads[j] = freq[j] * q.Cost / total
	}
	return loads, nil
}

// WorstLoadLP computes L̃ for one scenario by solving the routing LP
//
//	min L  s.t.  Σ_k z_{j,k} = 1 (load-carrying j),  z_{j,k} ≤ [runnable],
//	             Σ_j load_j·z_{j,k} ≤ L (every node k)
//
// exactly. It returns +Inf if some load-carrying query cannot run on any
// node (the allocation cannot serve the scenario at all).
func WorstLoadLP(w *model.Workload, alloc *model.Allocation, freq []float64) (float64, error) {
	loads, err := loadShares(w, freq)
	if err != nil {
		return 0, err
	}
	runnable := Runnable(w, alloc)

	p := &simplex.Problem{}
	l := p.AddVar(0, math.Inf(1), 1)
	// z variables per (query, runnable node).
	nodeRows := make([][]int, alloc.K) // z columns per node
	nodeCoefs := make([][]float64, alloc.K)
	for j := range w.Queries {
		if loads[j] <= 0 {
			continue
		}
		if len(runnable[j]) == 0 {
			return math.Inf(1), nil
		}
		var idx []int
		var coef []float64
		for _, k := range runnable[j] {
			col := p.AddVar(0, 1, 0)
			idx = append(idx, col)
			coef = append(coef, 1)
			nodeRows[k] = append(nodeRows[k], col)
			nodeCoefs[k] = append(nodeCoefs[k], loads[j])
		}
		p.AddRow(idx, coef, simplex.EQ, 1)
	}
	for k := 0; k < alloc.K; k++ {
		idx := append(append([]int(nil), nodeRows[k]...), l)
		coef := append(append([]float64(nil), nodeCoefs[k]...), -1)
		p.AddRow(idx, coef, simplex.LE, 0)
	}
	res, err := simplex.Solve(p, simplex.Options{})
	if err != nil {
		return 0, err
	}
	if res.Status != simplex.StatusOptimal {
		return 0, fmt.Errorf("eval: routing LP ended with status %v", res.Status)
	}
	return res.Obj, nil
}

// WorstLoadFlow computes L̃ for one scenario on the routing flow network
// (source→query→runnable node→sink with node capacity L): the smallest L at
// which a max flow places all load, found by the parametric Newton search
// of Evaluator.WorstLoad. tol is the absolute precision of the returned L̃
// (default 1e-9 if ≤ 0).
//
// This is the one-shot convenience wrapper; it rebuilds the allocation's
// executability sets and flow graph on every call. Evaluating many
// scenarios against the same allocation should construct an Evaluator once
// (or call EvaluateStream), which amortizes that work to zero per scenario.
func WorstLoadFlow(w *model.Workload, alloc *model.Allocation, freq []float64, tol float64) (float64, error) {
	return NewEvaluator(w, alloc, tol).WorstLoad(freq)
}

// Metrics aggregates an allocation's performance over a set of scenarios.
type Metrics struct {
	// L holds the worst-case load share L̃ per scenario.
	L []float64
	// MeanL is E(L̃); MeanGap is E(L̃) − 1/K; MeanThroughput is
	// E((1/K)/L̃), the paper's expected relative throughput.
	MeanL, MeanGap, MeanThroughput float64
	// Unservable counts scenarios with at least one unplaceable query
	// (L̃ = +Inf); they contribute zero throughput and are excluded from
	// MeanL / MeanGap.
	Unservable int
}

// Evaluate computes L̃ for every scenario in ss using the flow evaluator.
// It is EvaluateStream at default parallelism: aggregates are weighted by
// ss.Weights when present and bit-identical at every parallelism level.
func Evaluate(w *model.Workload, alloc *model.Allocation, ss *model.ScenarioSet) (*Metrics, error) {
	return EvaluateStream(w, alloc, ss, StreamOptions{})
}
