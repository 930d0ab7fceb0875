package eval

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"fragalloc/internal/maxflow"
	"fragalloc/internal/model"
)

// Evaluator computes worst-case load shares L̃ for many scenarios against
// ONE fixed allocation, amortizing everything that depends only on the
// allocation: the queries' runnable-set classes, the structure of whichever
// search the node count selects, and all numeric scratch. After
// construction, WorstLoad performs zero heap allocations per scenario.
//
// Queries that run on exactly the same nodes are interchangeable to the
// routing: any split of their summed load over those nodes can be handed
// back to them in proportion. So both searches work on one entry per class
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

	// The closed form (K ≤ cutMaxK): masks[c] is class c's node set as a
	// bit set, and sums the 2^K subset-sum table.
	masks []int
	sums  []float64

	// The flow network (K > cutMaxK; vertices: 0 = source, 1+c = class c,
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

// cutMaxK is the largest node count that WorstLoad serves in closed form.
// The closed form costs K·2^(K−1) additions whatever the allocation; the flow
// search's cost follows the allocation's classes and cuts, and barely grows
// with K. BenchmarkWorstLoadK (TPC-DS, a greedy allocation over K nodes,
// 200 unseen scenarios; medians of five runs at -cpu 1, Go 1.24, a shared
// two-core Xeon VM) read these µs per scenario, closed form / flow:
//
//	K=4   1.07 / 2.70    K=12  26.5 / 4.41
//	K=8   3.02 / 6.18    K=14   115 / 3.67
//	K=10  6.62 / 5.97    K=16   518 / 4.36
//
// At K=10 the two are level on this easy allocation; on the benchmark's
// robust TPC-DS allocation (K=8, 22 classes) the traced eval.worstload_us
// read 11.5 for the flow and 2.6 for the closed form, so the closed form
// keeps K=10.
const cutMaxK = 10

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
	e.loads = make([]float64, len(e.classNodes))
	if alloc.K <= cutMaxK {
		e.buildCut()
	} else {
		e.buildFlow()
	}
	return e
}

// buildCut builds the closed form's class masks and subset-sum table.
func (e *Evaluator) buildCut() {
	e.masks = make([]int, len(e.classNodes))
	for c, nodes := range e.classNodes {
		for _, k := range nodes {
			e.masks[c] |= 1 << k
		}
	}
	e.sums = make([]float64, 1<<e.alloc.K)
}

// buildFlow builds the flow network over the classes.
func (e *Evaluator) buildFlow() {
	n := len(e.classNodes)
	e.nodeBase = 1 + n
	e.sink = e.nodeBase + e.alloc.K
	e.g = maxflow.NewGraph(e.sink + 1)
	e.srcEdges = make([]int, n)
	for c, nodes := range e.classNodes {
		e.srcEdges[c] = e.g.AddEdge(e.source, 1+c, 0)
		for _, k := range nodes {
			e.midEdges = append(e.midEdges, e.g.AddEdge(1+c, e.nodeBase+k, 2))
		}
	}
	e.nodeEdges = make([]int, e.alloc.K)
	for k := range e.nodeEdges {
		e.nodeEdges[k] = e.g.AddEdge(e.nodeBase+k, e.sink, 0)
	}
}

// WorstLoad computes L̃ for one scenario frequency vector: the minimal
// worst-case node load share under optimal fractional routing. It returns
// +Inf when some load-carrying query cannot run on any node. The result
// depends only on the inputs, never on previous calls.
//
// Up to cutMaxK nodes it reads L̃ off the min cuts in closed form
// (worstCut). Above, it runs the parametric Newton search
// maxflow.MinLevel with every node's capacity at L: at most K max-flow
// continuations, each keeping the flow routed before it. The tests
// cross-check both against the routing LP and the bisection
// worstLoadBisect.
func (e *Evaluator) WorstLoad(freq []float64) (float64, error) {
	lo, totalLoad, err := e.prepare(freq)
	if err != nil || math.IsInf(lo, 1) {
		return lo, err
	}
	if e.alloc.K <= cutMaxK {
		return e.worstCut(lo), nil
	}
	return e.worstFlow(lo, totalLoad), nil
}

// worstFlow finds L̃ by the parametric Newton search from the floor lo.
func (e *Evaluator) worstFlow(lo, totalLoad float64) float64 {
	e.resetCapacities(lo)
	return e.g.MinLevel(e.source, e.sink, e.nodeEdges, lo, 1, totalLoad, e.tol)
}

// worstCut computes L̃ exactly from the class loads. By max-flow/min-cut
// duality on the routing network, the load fits under level L iff every
// node set T can take the load of the classes whose runnable nodes all lie
// in T, so
//
//	L̃ = max over nonempty T of load(classes ⊆ T) / |T|.
//
// It scatters each class's load into a table indexed by its node mask,
// turns the table into subset sums with one zeta pass (K·2^(K−1)
// additions), and takes the largest ratio, floored at lo.
func (e *Evaluator) worstCut(lo float64) float64 {
	sums := e.sums
	clear(sums)
	for c, l := range e.loads {
		sums[e.masks[c]] += l
	}
	bit := 1
	if len(sums) >= 4 { // the first two passes, fused on blocks of four
		for b := 0; b < len(sums); b += 4 {
			q := sums[b : b+4 : b+4]
			q[1] += q[0]
			q[3] += q[2]
			q[2] += q[0]
			q[3] += q[1]
		}
		bit = 4
	}
	for ; bit < len(sums); bit <<= 1 {
		for base := bit; base < len(sums); base += 2 * bit {
			with, without := sums[base:base+bit], sums[base-bit:base]
			for t := range with {
				with[t] += without[t]
			}
		}
	}
	best := lo
	for t := 1; t < len(sums); t++ {
		if r := sums[t] / float64(bits.OnesCount(uint(t))); r > best {
			best = r
		}
	}
	return best
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
