package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

// projectWorkload has four queries over six fragments: q0 {0}, q1 {1,2},
// q2 {3}, q3 {4,5}.
func projectWorkload() *model.Workload {
	w := &model.Workload{Name: "project"}
	for i := 0; i < 6; i++ {
		w.Fragments = append(w.Fragments, model.Fragment{ID: i, Size: 1})
	}
	for j, frags := range [][]int{{0}, {1, 2}, {3}, {4, 5}} {
		w.Queries = append(w.Queries, model.Query{ID: j, Fragments: frags, Cost: 1, Frequency: 1})
	}
	return w
}

// placementRows renders a placement one string per flexible query, one
// character per subnode: 'x' where the query is proposed, '.' elsewhere.
func placementRows(hint [][]bool) []string {
	rows := make([]string, len(hint))
	for q, row := range hint {
		var b strings.Builder
		for _, on := range row {
			if on {
				b.WriteByte('x')
			} else {
				b.WriteByte('.')
			}
		}
		rows[q] = b.String()
	}
	return rows
}

// TestProjectOntoSplits checks the one projection every starting placement
// goes through: subnode b proposes a query when some final node in b's leaf
// range can run it, and only the nodes the allocation has count. On a flat
// root that is the placement flat roots were always warm-started from:
// subnode b proposes exactly the queries node b can run.
func TestProjectOntoSplits(t *testing.T) {
	w := projectWorkload()
	// Node 0 runs q0; node 1 q1 and q2; node 2 nothing (it holds half of
	// q3); node 3 q0 and q3.
	four := &model.Allocation{K: 4, Fragments: [][]int{{0, 1}, {1, 2, 3}, {4}, {0, 4, 5}}}
	// The first three nodes: an incumbent from before a node joined.
	three := &model.Allocation{K: 3, Fragments: four.Fragments[:3]}
	// Eight nodes, the last four repeating the first four.
	eight := &model.Allocation{K: 8, Fragments: append(append([][]int(nil), four.Fragments...), four.Fragments...)}
	// A hierarchical pre-solve's scratch allocation for the group on leaves
	// 4..7 of eight: its four nodes laid out from leaf 0.
	scratch := &model.Allocation{K: 8, Fragments: append(append([][]int(nil), four.Fragments...), nil, nil, nil, nil)}
	two, split4 := Split(Flat(2), Flat(2)), Split(Flat(4), Flat(4))

	for _, tc := range []struct {
		name  string
		alloc *model.Allocation
		k     int
		spec  *ChunkSpec
		leaf  int
		want  []string // by query
	}{
		{"flat 4 root", four, 4, Flat(4), 0, []string{"x..x", ".x..", ".x..", "...x"}},
		{"2+2 root", four, 4, two, 0, []string{"xx", "x.", "x.", ".x"}},
		{"2+2 first child", four, 4, Flat(2), 0, []string{"x.", ".x", ".x", ".."}},
		{"2+2 second child", four, 4, Flat(2), 2, []string{".x", "..", "..", ".x"}},
		{"4+4 root", eight, 8, split4, 0, []string{"xx", "xx", "xx", "xx"}},
		{"4+4 first group", eight, 8, Flat(4), 0, []string{"x..x", ".x..", ".x..", "...x"}},
		{"4+4 second group", eight, 8, Flat(4), 4, []string{"x..x", ".x..", ".x..", "...x"}},
		{"4+4 pre-solve of the second group", scratch, 8, Flat(4), 0, []string{"x..x", ".x..", ".x..", "...x"}},
		{"node prefix: flat 4 root", three, 4, Flat(4), 0, []string{"x...", ".x..", ".x..", "...."}},
		{"node prefix: 2+2 root", three, 4, two, 0, []string{"x.", "x.", "x.", ".."}},
		{"node prefix: 2+2 second child", three, 4, Flat(2), 2, []string{"..", "..", "..", ".."}},
	} {
		sp, err := newRoot(w, nil, tc.k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := placementRows(sp.project(tc.alloc, tc.spec, tc.leaf))
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPreSolveIgnoresWarm checks that a group's hierarchical pre-solve is
// not offered the warm incumbent: its scratch run lays the group out from
// leaf 0, where the incumbent's nodes belong to whichever group owns leaf
// 0. The pre-solve's placement must come out the same with and without a
// warm allocation on the driver.
func TestPreSolveIgnoresWarm(t *testing.T) {
	w := tpcdsSubset(30)
	ss := scenario.InSample(w, 2, scenario.DefaultP, 1)
	budget := mip.Options{MaxNodes: 60, MaxStallNodes: 30}
	prior, err := Allocate(w, scenario.InSample(w, 2, scenario.DefaultP, 2), 8, Options{Chunks: mustChunks(t, "4+4"), MIP: budget, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	presolve := func(warm *model.Allocation) [][]bool {
		sp, err := newRoot(w, ss, 8, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d := &driver{
			w: w, ss: ss, opt: Options{MIP: budget, Warm: warm, Checkpoint: checkpoint.NewRecorder(nil, nil)},
			alloc: newAllocation(w, ss, 8), exact: true, gate: newGate(1), logMu: &sync.Mutex{},
		}
		return d.hierarchicalHint(sp, 4)
	}
	if cold, warm := presolve(nil), presolve(prior.Allocation); !reflect.DeepEqual(cold, warm) {
		t.Error("the hierarchical pre-solve placed queries differently with a warm allocation on the driver")
	}
}
