package maxflow

import (
	"math"
	"math/rand"
	"testing"
)

// Flow returns the flow currently pushed over edge id (capacity of the
// reverse residual edge). Only meaningful after MaxFlow ran.
func (g *Graph) Flow(id int) float64 { return g.cap[id^1] }

func TestClassicNetwork(t *testing.T) {
	// CLRS figure: max flow 23.
	g := NewGraph(6)
	s, v1, v2, v3, v4, tt := 0, 1, 2, 3, 4, 5
	g.AddEdge(s, v1, 16)
	g.AddEdge(s, v2, 13)
	g.AddEdge(v1, v3, 12)
	g.AddEdge(v2, v1, 4)
	g.AddEdge(v2, v4, 14)
	g.AddEdge(v3, v2, 9)
	g.AddEdge(v3, tt, 20)
	g.AddEdge(v4, v3, 7)
	g.AddEdge(v4, tt, 4)
	if f := g.MaxFlow(s, tt, 1e-12); math.Abs(f-23) > 1e-9 {
		t.Errorf("flow = %g, want 23", f)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 5)
	if f := g.MaxFlow(0, 2, 1e-12); f != 0 {
		t.Errorf("flow = %g, want 0", f)
	}
}

func TestParallelEdges(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 3.5)
	if f := g.MaxFlow(0, 1, 1e-12); math.Abs(f-5.5) > 1e-9 {
		t.Errorf("flow = %g, want 5.5", f)
	}
}

func TestFlowInspection(t *testing.T) {
	g := NewGraph(3)
	e1 := g.AddEdge(0, 1, 4)
	e2 := g.AddEdge(1, 2, 3)
	g.MaxFlow(0, 2, 1e-12)
	if got := g.Flow(e1); math.Abs(got-3) > 1e-9 {
		t.Errorf("flow(e1) = %g, want 3", got)
	}
	if got := g.Flow(e2); math.Abs(got-3) > 1e-9 {
		t.Errorf("flow(e2) = %g, want 3", got)
	}
}

func TestSetCapacityReuse(t *testing.T) {
	g := NewGraph(2)
	e := g.AddEdge(0, 1, 1)
	if f := g.MaxFlow(0, 1, 1e-12); math.Abs(f-1) > 1e-9 {
		t.Fatalf("flow = %g, want 1", f)
	}
	g.SetCapacity(e, 2.5)
	if f := g.MaxFlow(0, 1, 1e-12); math.Abs(f-2.5) > 1e-9 {
		t.Errorf("after reset flow = %g, want 2.5", f)
	}
}

// bruteMinCut enumerates all s-t cuts to compute the min cut value
// (= max flow). Exponential; for small random graphs only.
func bruteMinCut(n int, edges [][3]float64, s, t int) float64 {
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		if mask&(1<<s) == 0 || mask&(1<<t) != 0 {
			continue
		}
		var cut float64
		for _, e := range edges {
			u, v, c := int(e[0]), int(e[1]), e[2]
			if mask&(1<<u) != 0 && mask&(1<<v) == 0 {
				cut += c
			}
		}
		if cut < best {
			best = cut
		}
	}
	return best
}

func TestRandomVsMinCut(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(6)
		s, tt := 0, n-1
		var edges [][3]float64
		g := NewGraph(n)
		m := 1 + rng.Intn(12)
		for e := 0; e < m; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := math.Round(rng.Float64()*40) / 4
			g.AddEdge(u, v, c)
			edges = append(edges, [3]float64{float64(u), float64(v), c})
		}
		flow := g.MaxFlow(s, tt, 1e-12)
		cut := bruteMinCut(n, edges, s, tt)
		if math.Abs(flow-cut) > 1e-7 {
			t.Fatalf("trial %d: flow %g != min cut %g (edges %v)", trial, flow, cut, edges)
		}
	}
}
