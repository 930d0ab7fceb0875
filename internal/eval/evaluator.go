package eval

import (
	"fmt"
	"math"

	"fragalloc/internal/maxflow"
	"fragalloc/internal/model"
)

// Evaluator computes worst-case load shares L̃ for many scenarios against
// ONE fixed allocation, amortizing everything that depends only on the
// allocation: the per-query executability sets (Runnable), the max-flow
// graph's structure, and all numeric scratch. After construction, WorstLoad
// performs zero heap allocations per scenario — only edge capacities change
// between the probes of the parametric Newton search, never the graph.
//
// An Evaluator is not safe for concurrent use; EvaluateStream gives each
// worker its own. Results are a pure function of (workload, allocation,
// frequency vector, tolerance), independent of call order, which is what
// makes the streaming driver bit-identical at every parallelism level.
type Evaluator struct {
	w        *model.Workload
	alloc    *model.Allocation
	runnable [][]int
	tol      float64

	// Flow network over ALL queries (vertices: 0 = source, 1+j = query j,
	// 1+Q+k = node k, last = sink). Zero-load queries keep source capacity 0,
	// which provably cannot change the max-flow value, so the structure never
	// depends on the scenario.
	g            *maxflow.Graph
	source, sink int
	srcEdges     []int // per query j: source→query
	midEdges     []int // query→runnable node, capacity 2 (loads are ≤ 1)
	nodeEdges    []int // per node k: node→sink, capacity = probed L

	loads []float64 // per-query normalized load scratch
}

// NewEvaluator builds the reusable evaluation state for one allocation.
// tol is the absolute precision of returned load shares (default 1e-9).
func NewEvaluator(w *model.Workload, alloc *model.Allocation, tol float64) *Evaluator {
	if tol <= 0 {
		tol = 1e-9
	}
	q := len(w.Queries)
	e := &Evaluator{
		w:        w,
		alloc:    alloc,
		runnable: Runnable(w, alloc),
		tol:      tol,
		source:   0,
		sink:     1 + q + alloc.K,
		loads:    make([]float64, q),
	}
	e.g = maxflow.NewGraph(e.sink + 1)
	e.srcEdges = make([]int, q)
	for j := 0; j < q; j++ {
		e.srcEdges[j] = e.g.AddEdge(e.source, 1+j, 0)
		for _, k := range e.runnable[j] {
			e.midEdges = append(e.midEdges, e.g.AddEdge(1+j, 1+q+k, 2))
		}
	}
	e.nodeEdges = make([]int, alloc.K)
	for k := 0; k < alloc.K; k++ {
		e.nodeEdges[k] = e.g.AddEdge(1+q+k, e.sink, 0)
	}
	return e
}

// WorstLoad computes L̃ for one scenario frequency vector: the minimal
// worst-case node load share under optimal fractional routing. It returns
// +Inf when some load-carrying query cannot run on any node. The result
// depends only on the inputs, never on previous calls.
//
// Instead of bisecting L with a from-scratch max-flow per probe (the
// pre-streaming approach, kept as worstLoadBisect for cross-checking), the
// search is parametric: the max-flow value F(L) is a concave, piecewise-
// linear, non-decreasing function of the shared node capacity L, and the
// slope of the active piece is the number of node vertices on the source
// side of the current min cut. A Newton step from below — raise L by
// deficit/slope — lands exactly on the crossing of the active cut's line
// with the total load, never overshoots the true L̃, and strictly decreases
// the slope whenever the deficit survives, so it converges in at most K
// max-flow continuations. Because L only ever grows, each continuation
// keeps all previously routed flow and pushes just the remaining deficit.
func (e *Evaluator) WorstLoad(freq []float64) (float64, error) {
	lo, totalLoad, err := e.prepare(freq)
	if err != nil || math.IsInf(lo, 1) {
		return lo, err
	}
	l := lo
	e.resetCapacities(l)
	flow := e.g.MaxFlow(e.source, e.sink, e.tol/16)
	// ≤ K productive steps; the slack is float-rounding insurance.
	for iter := 0; iter < e.alloc.K+8; iter++ {
		deficit := totalLoad - flow
		if deficit <= e.tol/4 || l >= 1 {
			return l, nil
		}
		m := 0
		for k := range e.nodeEdges {
			if e.g.SourceSide(1 + len(e.w.Queries) + k) {
				m++
			}
		}
		if m == 0 {
			// Unreachable while deficit > tol/4 ≫ the flow epsilon; only
			// float dust could get here, and a full-slope step is safe.
			m = 1
		}
		step := deficit / float64(m)
		if step < e.tol/16 {
			step = e.tol / 16
		}
		if l+step > 1 {
			step = 1 - l
		}
		l += step
		for _, id := range e.nodeEdges {
			e.g.AddCapacity(id, step)
		}
		flow += e.g.MaxFlow(e.source, e.sink, e.tol/16)
	}
	return l, nil
}

// worstLoadBisect is the reference search: binary-search L with an
// independent from-scratch feasibility probe per step. It brackets the same
// quasi-feasibility frontier as the parametric search (both are within tol
// of the exact L̃) and exists to cross-check WorstLoad in tests and to serve
// as the benchmark's pre-streaming baseline.
func (e *Evaluator) worstLoadBisect(freq []float64) (float64, error) {
	lo, totalLoad, err := e.prepare(freq)
	if err != nil || math.IsInf(lo, 1) {
		return lo, err
	}
	if e.feasible(lo, totalLoad) {
		return lo, nil
	}
	hi := 1.0
	for hi-lo > e.tol {
		mid := (lo + hi) / 2
		if e.feasible(mid, totalLoad) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// prepare validates freq, fills e.loads, and returns the search floor and
// the total load. A +Inf floor means some load-carrying query is unservable.
func (e *Evaluator) prepare(freq []float64) (lo, totalLoad float64, err error) {
	if len(freq) != len(e.w.Queries) {
		return 0, 0, fmt.Errorf("eval: frequency vector has length %d, want %d", len(freq), len(e.w.Queries))
	}
	var total float64
	for j, q := range e.w.Queries {
		total += freq[j] * q.Cost
	}
	if total <= 0 {
		return 0, 0, fmt.Errorf("eval: scenario has zero total cost")
	}
	// lo: the perfect average 1/K, raised by any single-node query's load
	// (its whole share lands on that one node no matter the routing).
	lo = 1 / float64(e.alloc.K)
	for j, q := range e.w.Queries {
		l := freq[j] * q.Cost / total
		e.loads[j] = l
		if l <= 0 {
			continue
		}
		if len(e.runnable[j]) == 0 {
			return math.Inf(1), 0, nil
		}
		totalLoad += l
		if len(e.runnable[j]) == 1 && l > lo {
			lo = l
		}
	}
	return lo, totalLoad, nil
}

// resetCapacities rewrites every edge capacity for the current scenario, so
// each search starts from an identical residual state regardless of history.
func (e *Evaluator) resetCapacities(l float64) {
	for j, id := range e.srcEdges {
		e.g.SetCapacity(id, e.loads[j])
	}
	for _, id := range e.midEdges {
		e.g.SetCapacity(id, 2)
	}
	for _, id := range e.nodeEdges {
		e.g.SetCapacity(id, l)
	}
}

// feasible probes whether all load can be routed with no node above l, from
// a fresh residual state.
func (e *Evaluator) feasible(l, totalLoad float64) bool {
	e.resetCapacities(l)
	return e.g.MaxFlow(e.source, e.sink, e.tol/16) >= totalLoad-e.tol/4
}
