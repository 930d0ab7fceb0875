package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

func boundNamed(t *testing.T, name string) bound {
	t.Helper()
	for _, b := range bounds {
		if b.name == name {
			return b
		}
	}
	t.Fatalf("no bound named %s", name)
	return bound{}
}

func TestBounds(t *testing.T) {
	for _, c := range []struct {
		metric          string
		base, candidate float64
		breach          bool
	}{
		// relative, lower is better
		{"solve_s", 2.0, 2.19, false},
		{"solve_s", 2.0, 2.21, true},
		{"solve_s", 2.0, 1.0, false},
		{"replication_factor", 2.0, 2.019, false},
		{"replication_factor", 2.0, 2.021, true},
		{"setup_s", 1.0, 1.24, false},
		{"setup_s", 1.0, 1.26, true},
		{"adopt_p90_ms", 100, 114, false},
		{"adopt_p90_ms", 100, 116, true},
		// absolute: a gap near zero has no meaningful share
		{"robust_gap", 0.0206, 0.0225, false},
		{"robust_gap", 0.0206, 0.0227, true},
		{"robust_gap", 0, 0.0019, false},
		// higher is better
		{"ingest_per_s", 160, 145, false},
		{"ingest_per_s", 160, 143, true},
		{"ingest_per_s", 160, 400, false},
		// no allowance at all
		{"fail_share", 0, 0, false},
		{"fail_share", 0, 0.01, true},
	} {
		b := boundNamed(t, c.metric)
		if got := b.breached(c.base, c.candidate); got != c.breach {
			t.Errorf("%s %v → %v: breached = %v, want %v", c.metric, c.base, c.candidate, got, c.breach)
		}
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(solve, ingest float64) *results {
		a := &report{Workload: "a"}
		a.EndToEnd.add("solve_s", solve, "s", 8)
		a.EndToEnd.add("fail_share", 0, "share", 8)
		b := &report{Workload: "b"}
		b.EndToEnd.add("ingest_per_s", ingest, "1/s", 3500)
		return &results{Workloads: []*report{a, b}}
	}
	if n := compareResults(io.Discard, mk(2, 160), mk(2.1, 150)); n != 0 {
		t.Errorf("within bounds: %d breaches", n)
	}
	if n := compareResults(io.Discard, mk(2, 160), mk(2.3, 100)); n != 2 {
		t.Errorf("two regressions: %d breaches, want 2", n)
	}
	gone := mk(2, 160)
	gone.Workloads = gone.Workloads[:1]
	if n := compareResults(io.Discard, mk(2, 160), gone); n != 1 {
		t.Errorf("a workload missing from the candidate: %d breaches, want 1", n)
	}
}

// BENCHMARK.json is written by hand; the program's tables are what actually
// runs. They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var gated []spec
	for _, sp := range specs {
		if !sp.ungated {
			gated = append(gated, sp)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated specs", len(doc.Workloads), len(gated))
	}
	for i, w := range doc.Workloads {
		if w.Name != gated[i].name {
			t.Errorf("workload %d is %q, spec is %q", i, w.Name, gated[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(driverEndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, want %d", len(doc.EndToEnd), len(driverEndToEnd))
	}
	for i, e := range doc.EndToEnd {
		b := boundNamed(t, driverEndToEnd[i])
		if e.Name != b.name || e.Unit != b.unit || !sameBits(e.Bound, b.relative) || (e.Better == "higher") != b.higher {
			t.Errorf("end-to-end metric %+v does not match bound %+v", e, b)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, want %d", len(doc.PerLayer), len(perLayer))
	}
	for i, e := range doc.PerLayer {
		if e.Name != perLayer[i].name || e.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s], table says %s [%s]", i, e.Name, e.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
