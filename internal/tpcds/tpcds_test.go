package tpcds

import (
	"sort"
	"testing"
)

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) != 24 {
		t.Fatalf("catalog has %d tables, want 24", len(cat))
	}
	total := 0
	for _, tbl := range cat {
		if tbl.Rows <= 0 {
			t.Errorf("table %s has %d rows", tbl.Name, tbl.Rows)
		}
		if len(tbl.Columns) == 0 {
			t.Errorf("table %s has no columns", tbl.Name)
		}
		pk := 0
		seen := map[string]bool{}
		for _, c := range tbl.Columns {
			if seen[c.Name] {
				t.Errorf("table %s has duplicate column %s", tbl.Name, c.Name)
			}
			seen[c.Name] = true
			if c.Bytes <= 0 {
				t.Errorf("column %s.%s has %g bytes", tbl.Name, c.Name, c.Bytes)
			}
			if c.PK {
				pk++
			}
		}
		if pk == 0 {
			t.Errorf("table %s has no primary-key column", tbl.Name)
		}
		total += len(tbl.Columns)
	}
	if total != NumColumns {
		t.Fatalf("catalog has %d columns, want %d (the paper's N=425)", total, NumColumns)
	}
}

func TestExpectedCardinalities(t *testing.T) {
	want := map[string]int64{
		"store_sales":   2880404,
		"catalog_sales": 1441548,
		"web_sales":     719384,
		"inventory":     11745000,
		"customer":      100000,
		"date_dim":      73049,
	}
	for _, tbl := range Catalog() {
		if rows, ok := want[tbl.Name]; ok && tbl.Rows != rows {
			t.Errorf("%s has %d rows, want %d", tbl.Name, tbl.Rows, rows)
		}
	}
}

func TestWorkloadShape(t *testing.T) {
	w := Workload()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := w.NumFragments(); got != 425 {
		t.Errorf("N = %d, want 425", got)
	}
	if got := w.NumQueries(); got != 94 {
		t.Errorf("Q = %d, want 94", got)
	}
	// The omitted templates must not appear; q2 must.
	names := map[string]bool{}
	for _, q := range w.Queries {
		names[q.Name] = true
	}
	for _, omittedName := range []string{"q1", "q4", "q6", "q11", "q74"} {
		if names[omittedName] {
			t.Errorf("omitted template %s present", omittedName)
		}
	}
	if !names["q2"] || !names["q99"] {
		t.Error("expected templates q2 and q99 to be present")
	}
	for _, q := range w.Queries {
		if len(q.Fragments) < 2 {
			t.Errorf("query %s accesses only %d fragments", q.Name, len(q.Fragments))
		}
		if q.Cost <= 0 || q.Frequency != 1 {
			t.Errorf("query %s has cost %g frequency %g", q.Name, q.Cost, q.Frequency)
		}
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a, b := Workload(), Workload()
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("nondeterministic query count")
	}
	for j := range a.Queries {
		if a.Queries[j].Cost != b.Queries[j].Cost {
			t.Fatalf("query %d cost differs between runs", j)
		}
		if len(a.Queries[j].Fragments) != len(b.Queries[j].Fragments) {
			t.Fatalf("query %d fragments differ between runs", j)
		}
		for t2 := range a.Queries[j].Fragments {
			if a.Queries[j].Fragments[t2] != b.Queries[j].Fragments[t2] {
				t.Fatalf("query %d fragment %d differs", j, t2)
			}
		}
	}
	// A different seed must give a different workload.
	c := WorkloadSeed(99)
	same := true
	for j := range a.Queries {
		if a.Queries[j].Cost != c.Queries[j].Cost {
			same = false
			break
		}
	}
	if same {
		t.Error("seed 99 produced identical costs to the default seed")
	}
}

// TestWorkloadSkew verifies the paper's Figure 1a property: the top-50
// queries carry the overwhelming share of the workload.
func TestWorkloadSkew(t *testing.T) {
	w := Workload()
	shares := w.QueryShares(w.DefaultFrequencies())
	sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
	var top50 float64
	for _, s := range shares[:50] {
		top50 += s
	}
	if top50 < 0.90 {
		t.Errorf("top-50 queries carry %.3f of the load, want >= 0.90 (paper: 0.97)", top50)
	}
	t.Logf("top-50 share: %.4f (paper reports > 0.97)", top50)
}

func TestFragmentSizesPlausible(t *testing.T) {
	w := Workload()
	byName := map[string]float64{}
	for _, f := range w.Fragments {
		byName[f.Name] = f.Size
	}
	// A fact-table measure column must dwarf a tiny dimension column.
	if byName["store_sales.ss_net_paid"] <= byName["store.s_state"] {
		t.Error("store_sales measure not larger than a store attribute")
	}
	// PK columns include an index: larger than a same-typed non-PK column
	// of the same table.
	if byName["store_sales.ss_item_sk"] <= byName["store_sales.ss_customer_sk"] {
		t.Error("PK column size does not include the index")
	}
}
