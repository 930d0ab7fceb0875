package core

import (
	"bytes"
	"hash/fnv"
	"regexp"
	"strings"
	"testing"

	"fragalloc/internal/accounting"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
	"fragalloc/internal/tpcds"
)

// TestExportLPCollidingNames exports a workload whose fragment and query
// names collide once sanitized ("orders.id" and "orders_id" both clean to
// orders_id) and checks that every variable keeps its own name: one x per
// fragment and node, one y and one z per query and node.
func TestExportLPCollidingNames(t *testing.T) {
	w := &model.Workload{
		Fragments: []model.Fragment{
			{ID: 0, Name: "orders.id", Size: 4},
			{ID: 1, Name: "orders_id", Size: 2},
			// Already spelled like a suffixed name: the suffix must not
			// land on it.
			{ID: 2, Name: "orders_id_f1", Size: 3},
			{ID: 3, Size: 1},
			{ID: 4, Name: "f3", Size: 5},
		},
		Queries: []model.Query{
			{ID: 0, Name: "q.a", Fragments: []int{0, 1}, Cost: 3, Frequency: 1},
			{ID: 1, Name: "q-a", Fragments: []int{2, 3}, Cost: 2, Frequency: 1},
			{ID: 2, Name: "q_a", Fragments: []int{4}, Cost: 1, Frequency: 1},
		},
	}
	const k = 2
	var buf bytes.Buffer
	if err := ExportLP(&buf, w, nil, k, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The Bounds section lists every x, y and z variable once.
	bounds := out[strings.Index(out, "Bounds"):strings.Index(out, "Binary")]
	vars := map[string]bool{}
	for _, v := range regexp.MustCompile(`\b[xyz]_\w+`).FindAllString(bounds, -1) {
		if vars[v] {
			t.Errorf("variable %s listed twice", v)
		}
		vars[v] = true
	}
	if want := (len(w.Fragments) + 2*len(w.Queries)) * k; len(vars) != want {
		t.Errorf("%d distinct variables, want %d: %v", len(vars), want, vars)
	}
	for _, name := range []string{
		"x_orders_id_f0_n0", "x_orders_id_f1__n1", "x_orders_id_f1_n0", // fragments 0, 1, 2
		"x_f3_f3_n1", "x_f3_f4_n0", // unnamed fragment 3 and fragment 4 named f3
		"y_q_a_q0_n0", "y_q_a_q2_n1", "z_q_a_q1_n0_s0",
	} {
		if !vars[name] {
			t.Errorf("no variable %s in %v", name, vars)
		}
	}
}

// TestExportLPBuiltinNamesUnchanged pins that the built-in workloads have no
// colliding names, so their exports carry every name exactly as sanitized.
func TestExportLPBuiltinNamesUnchanged(t *testing.T) {
	for _, w := range []*model.Workload{tpcds.Workload(), accounting.Workload()} {
		frags := entityNames(len(w.Fragments), func(i int) string { return w.Fragments[i].Name }, "f")
		for i, f := range w.Fragments {
			if frags[i] != sanitize(f.Name) {
				t.Errorf("%s fragment %d (%q) exported as %s", w.Name, i, f.Name, frags[i])
			}
		}
		queries := entityNames(len(w.Queries), func(j int) string { return w.Queries[j].Name }, "q")
		for j, q := range w.Queries {
			if queries[j] != sanitize(q.Name) {
				t.Errorf("%s query %d (%q) exported as %s", w.Name, j, q.Name, queries[j])
			}
		}
	}
}

// TestExportLPGolden pins the bytes ExportLP writes for TPC-DS with K=2,
// 47 fixed queries and two scenarios: x lower bounds of 1 on node 0, the
// fixed load on node 0's balance right-hand sides, and a z column and a
// balance row per scenario. A change to how the model is built or named
// that moves the LP file moves this digest.
func TestExportLPGolden(t *testing.T) {
	const want uint64 = 0x2108b083a1a78d3c
	w := tpcds.Workload()
	ss := scenario.InSample(w, 2, scenario.DefaultP, 1)
	var buf bytes.Buffer
	if err := ExportLP(&buf, w, ss, 2, Options{FixedQueries: 47}); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got := h.Sum64(); got != want {
		t.Errorf("LP file digest %#x (%d bytes), want %#x", got, buf.Len(), want)
	}
}
