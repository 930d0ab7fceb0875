// Package maxflow implements Dinic's maximum-flow algorithm on graphs with
// float64 capacities, and MinLevel, the parametric search on it: the least
// level L at which a demand can be routed when every sink edge admits L.
// The allocation evaluator (package eval) runs it for the worst-case load
// share L̃ of Section 4.2 of the paper, cross-checked against the LP
// evaluator in tests. The trim (package core) still routes a subproblem's
// rows (6)–(7) at a fixed placement with an LP.
//
// A Graph owns its BFS/DFS scratch, so repeated MaxFlow runs on one graph
// allocate nothing; it is therefore not safe for concurrent use, and the
// streaming evaluator gives each worker its own.
package maxflow

import "math"

// Graph is a flow network under construction. Vertices are dense integers.
type Graph struct {
	n     int
	heads [][]int // adjacency: vertex -> edge indices
	to    []int
	cap   []float64

	// Search scratch, lazily sized on first MaxFlow and reused after.
	level []int
	iter  []int
	queue []int
	eps   float64
	t     int
}

// NewGraph returns a graph with n vertices and no edges.
func NewGraph(n int) *Graph {
	return &Graph{n: n, heads: make([][]int, n)}
}

// AddEdge adds a directed edge u→v with the given capacity (and its reverse
// residual edge with capacity 0). It returns the edge index, which can be
// passed to Flow after a run to inspect the flow pushed over the edge.
func (g *Graph) AddEdge(u, v int, capacity float64) int {
	id := len(g.to)
	g.to = append(g.to, v, u)
	g.cap = append(g.cap, capacity, 0)
	g.heads[u] = append(g.heads[u], id)
	g.heads[v] = append(g.heads[v], id+1)
	return id
}

// Flow returns the flow currently pushed over edge id (capacity of the
// reverse residual edge). Only meaningful after MaxFlow ran.
func (g *Graph) Flow(id int) float64 { return g.cap[id^1] }

// SetCapacity resets the capacity of edge id and zeroes its residual
// counterpart, allowing the graph to be re-used across MaxFlow runs with
// different capacities.
func (g *Graph) SetCapacity(id int, capacity float64) {
	g.cap[id] = capacity
	g.cap[id^1] = 0
}

// AddCapacity raises the capacity of edge id by delta WITHOUT touching the
// reverse residual edge, so flow already routed through it survives. This is
// the primitive behind parametric re-solving: monotonically enlarge some
// capacities, then call MaxFlow again — it returns only the additional flow
// found, continuing from the preserved state.
func (g *Graph) AddCapacity(id int, delta float64) {
	g.cap[id] += delta
}

// SourceSide reports whether vertex v lies on the source side of the min cut
// found by the last MaxFlow run (reachable from s in the final residual
// network). Only meaningful after MaxFlow has returned; the terminating BFS
// left exactly that reachability in the level labels.
func (g *Graph) SourceSide(v int) bool { return g.level[v] >= 0 }

// MaxFlow computes the maximum s→t flow with Dinic's algorithm. The epsilon
// guards float comparisons; capacities below eps are treated as saturated.
func (g *Graph) MaxFlow(s, t int, eps float64) float64 {
	if eps <= 0 {
		eps = 1e-12
	}
	if len(g.level) < g.n {
		g.level = make([]int, g.n)
		g.iter = make([]int, g.n)
		g.queue = make([]int, 0, g.n)
	}
	g.eps = eps
	g.t = t

	var total float64
	for g.bfs(s, t) {
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			pushed := g.dfs(s, math.Inf(1))
			if pushed <= eps {
				break
			}
			total += pushed
		}
	}
	return total
}

// MinLevel returns the least level L ≥ lo at which a flow of value demand
// fits from s to t when every sink edge in sinks has capacity L. On entry
// the caller has set every capacity (SetCapacity), the sink edges' at lo.
// L is within tol of the exact level and at most hi; the graph is left
// holding a maximum flow at L.
//
// The max-flow value is concave and piecewise-linear in L, and the slope of
// the active piece is the number of sink edges whose tails lie on the
// source side of the min cut. A Newton step from below — L += deficit/slope
// — never overshoots and strictly decreases the slope while a deficit
// survives, so at most len(sinks) max-flow continuations reach the level;
// since L only grows, each keeps the flow routed before it.
func (g *Graph) MinLevel(s, t int, sinks []int, lo, hi, demand, tol float64) float64 {
	l := lo
	flow := g.MaxFlow(s, t, tol/16)
	// ≤ len(sinks) productive steps; the slack is float-rounding insurance.
	for iter := 0; iter < len(sinks)+8; iter++ {
		deficit := demand - flow
		if deficit <= tol/4 || l >= hi {
			return l
		}
		m := 0
		for _, id := range sinks {
			if g.SourceSide(g.to[id^1]) {
				m++
			}
		}
		if m == 0 { // float dust only: deficit > tol/4 ≫ the flow epsilon
			m = 1
		}
		step := deficit / float64(m)
		if step < tol/16 {
			step = tol / 16
		}
		if l+step > hi {
			step = hi - l
		}
		l += step
		for _, id := range sinks {
			g.AddCapacity(id, step)
		}
		flow += g.MaxFlow(s, t, tol/16)
	}
	return l
}

// bfs builds the level graph of the current residual network and reports
// whether t is reachable from s.
func (g *Graph) bfs(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	g.level[s] = 0
	g.queue = g.queue[:0]
	g.queue = append(g.queue, s)
	for qi := 0; qi < len(g.queue); qi++ {
		u := g.queue[qi]
		for _, id := range g.heads[u] {
			if g.cap[id] > g.eps && g.level[g.to[id]] == -1 {
				g.level[g.to[id]] = g.level[u] + 1
				g.queue = append(g.queue, g.to[id])
			}
		}
	}
	return g.level[t] >= 0
}

// dfs pushes one blocking-path unit of flow toward g.t along the level
// graph, advancing the per-vertex iterators so dead branches are never
// revisited within a phase.
func (g *Graph) dfs(u int, limit float64) float64 {
	if u == g.t {
		return limit
	}
	for ; g.iter[u] < len(g.heads[u]); g.iter[u]++ {
		id := g.heads[u][g.iter[u]]
		v := g.to[id]
		if g.cap[id] <= g.eps || g.level[v] != g.level[u]+1 {
			continue
		}
		pushed := g.dfs(v, math.Min(limit, g.cap[id]))
		if pushed > g.eps {
			g.cap[id] -= pushed
			g.cap[id^1] += pushed
			return pushed
		}
	}
	return 0
}
