package eval

import (
	"encoding/binary"
	"fmt"
	"math"

	"fragalloc/internal/maxflow"
	"fragalloc/internal/model"
)

// Evaluator computes worst-case load shares L̃ for many scenarios against
// ONE fixed allocation, amortizing everything that depends only on the
// allocation: the queries' runnable-set classes, the max-flow graph's
// structure, and all numeric scratch. After construction, WorstLoad
// performs zero heap allocations per scenario — only edge capacities change
// between the probes of the parametric Newton search, never the graph.
//
// Queries that run on exactly the same nodes are interchangeable to the
// routing: any split of their summed load over those nodes can be handed
// back to them in proportion. So the flow network has one vertex per class
// of queries sharing a runnable node set, not one per query, and what a
// scenario costs follows the allocation's few classes rather than the
// workload's query count.
//
// An Evaluator is not safe for concurrent use; EvaluateStream gives each
// worker its own. Results are a pure function of (workload, allocation,
// frequency vector, tolerance), independent of call order, which is what
// makes the streaming driver bit-identical at every parallelism level.
type Evaluator struct {
	w     *model.Workload
	alloc *model.Allocation
	tol   float64

	// class[j] is query j's runnable-set class. Classes are numbered in the
	// order their first query appears; classNodes[c] lists class c's nodes
	// (none for queries no node can run).
	class      []int
	classNodes [][]int

	// Flow network over the classes (vertices: 0 = source, 1+c = class c,
	// nodeBase+k = node k, last = sink). A class without load keeps source
	// capacity 0, which provably cannot change the max-flow value, so the
	// structure never depends on the scenario.
	g            *maxflow.Graph
	source, sink int
	nodeBase     int
	srcEdges     []int // per class c: source→class
	midEdges     []int // class→runnable node, capacity 2 (loads sum to ≤ 1)
	nodeEdges    []int // per node k: node→sink, capacity = probed L

	loads []float64 // per-class normalized load scratch
}

// NewEvaluator builds the reusable evaluation state for one allocation.
// tol is the absolute precision of returned load shares (default 1e-9).
func NewEvaluator(w *model.Workload, alloc *model.Allocation, tol float64) *Evaluator {
	if tol <= 0 {
		tol = 1e-9
	}
	e := &Evaluator{w: w, alloc: alloc, tol: tol, class: make([]int, len(w.Queries))}
	byNodes := make(map[string]int) // varint-encoded runnable set → class
	var key []byte
	for j, nodes := range Runnable(w, alloc) {
		key = key[:0]
		for _, k := range nodes {
			key = binary.AppendUvarint(key, uint64(k))
		}
		c, ok := byNodes[string(key)]
		if !ok {
			c = len(e.classNodes)
			byNodes[string(key)] = c
			e.classNodes = append(e.classNodes, nodes)
		}
		e.class[j] = c
	}
	n := len(e.classNodes)
	e.nodeBase = 1 + n
	e.sink = e.nodeBase + alloc.K
	e.loads = make([]float64, n)
	e.g = maxflow.NewGraph(e.sink + 1)
	e.srcEdges = make([]int, n)
	for c, nodes := range e.classNodes {
		e.srcEdges[c] = e.g.AddEdge(e.source, 1+c, 0)
		for _, k := range nodes {
			e.midEdges = append(e.midEdges, e.g.AddEdge(1+c, e.nodeBase+k, 2))
		}
	}
	e.nodeEdges = make([]int, alloc.K)
	for k := range e.nodeEdges {
		e.nodeEdges[k] = e.g.AddEdge(e.nodeBase+k, e.sink, 0)
	}
	return e
}

// WorstLoad computes L̃ for one scenario frequency vector: the minimal
// worst-case node load share under optimal fractional routing. It returns
// +Inf when some load-carrying query cannot run on any node. The result
// depends only on the inputs, never on previous calls.
//
// Instead of bisecting L with a from-scratch max-flow per probe (the
// pre-streaming approach, kept in the tests as worstLoadBisect), it
// runs the parametric Newton search maxflow.MinLevel with every node's
// capacity at L: at most K max-flow continuations, each keeping the flow
// routed before it.
func (e *Evaluator) WorstLoad(freq []float64) (float64, error) {
	lo, totalLoad, err := e.prepare(freq)
	if err != nil || math.IsInf(lo, 1) {
		return lo, err
	}
	e.resetCapacities(lo)
	return e.g.MinLevel(e.source, e.sink, e.nodeEdges, lo, 1, totalLoad, e.tol), nil
}

// prepare validates freq, fills e.loads with each class's summed load, and
// returns the search floor and the total load. A +Inf floor means some
// load-carrying query is unservable.
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
	clear(e.loads)
	for j, q := range e.w.Queries {
		if l := freq[j] * q.Cost / total; l > 0 {
			e.loads[e.class[j]] += l
		}
	}
	// lo: the perfect average 1/K, raised by any single-node class's load
	// (its whole share lands on that one node no matter the routing).
	lo = 1 / float64(e.alloc.K)
	for c, l := range e.loads {
		if l <= 0 {
			continue
		}
		if len(e.classNodes[c]) == 0 {
			return math.Inf(1), 0, nil
		}
		totalLoad += l
		if len(e.classNodes[c]) == 1 && l > lo {
			lo = l
		}
	}
	return lo, totalLoad, nil
}

// resetCapacities rewrites every edge capacity for the current scenario, so
// each search starts from an identical residual state regardless of history.
func (e *Evaluator) resetCapacities(l float64) {
	for c, id := range e.srcEdges {
		e.g.SetCapacity(id, e.loads[c])
	}
	for _, id := range e.midEdges {
		e.g.SetCapacity(id, 2)
	}
	for _, id := range e.nodeEdges {
		e.g.SetCapacity(id, l)
	}
}
