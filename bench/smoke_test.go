package main

import (
	"math"
	"testing"
	"time"
)

// shrink cuts a workload down to smoke size: the same code paths on fewer
// nodes, at a node budget of two, with a handful of scenarios and a few
// operations.
func shrink(sp spec) (spec, int) {
	sp.mip.MaxNodes, sp.mip.MaxStallNodes = 2, 0
	if sp.chunks == "" {
		sp.k = 2
	} else {
		sp.k, sp.chunks = 4, "2+2"
	}
	sp.observed = min(sp.observed, 6)
	sp.reduceTo = min(sp.reduceTo, 2)
	sp.unseen = min(sp.unseen, 40)
	switch sp.kind {
	case kindDrift:
		return sp, 3
	case kindFlood:
		return sp, 25
	}
	return sp, 2
}

// TestSmoke runs all five workloads traced, and the cheapest one untraced
// too, at smoke size:
// every operation must pass the checker, every metric the workload defines
// must come out a finite number, and every per-layer metric must be in the
// table BENCHMARK.json is checked against — so `go test ./...` keeps the
// benchmark from rotting.
func TestSmoke(t *testing.T) {
	units := make(map[string]string)
	for _, pl := range perLayer {
		units[pl.name] = pl.unit
	}
	seen := make(map[string]bool)
	for _, full := range specs {
		sp, ops := shrink(full)
		for _, traced := range []bool{false, true} {
			if !traced && sp.kind != kindFlood {
				continue // the traced run covers everything the untraced one does
			}
			start := time.Now()
			rep, err := runWorkload(sp, runConfig{seed: 1, evalSeed: 1, ops: ops, traced: traced, root: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s traced=%v: %v", sp.name, traced, time.Since(start).Round(time.Millisecond))
			if rep.Failed != 0 || rep.Attempted != ops {
				t.Errorf("%s traced=%v: %d of %d operations failed: %q", sp.name, traced, rep.Failed, rep.Attempted, rep.Failures)
			}
			for _, name := range driverEndToEnd {
				m, ok := rep.EndToEnd.get(name)
				if !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.N < 1 {
					t.Errorf("%s traced=%v: end-to-end metric %s = %+v", sp.name, traced, name, m)
				}
			}
			if !traced {
				if len(rep.PerLayer) != 0 || rep.spans != nil {
					t.Errorf("%s: the untraced run recorded per-layer numbers", sp.name)
				}
				continue
			}
			if len(rep.spans) == 0 {
				t.Errorf("%s: the traced run recorded no spans", sp.name)
			}
			for _, m := range rep.PerLayer {
				if units[m.Name] != m.Unit {
					t.Errorf("%s: per-layer metric %s [%s] is not in the table (table unit %q)", sp.name, m.Name, m.Unit, units[m.Name])
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: per-layer metric %s = %v", sp.name, m.Name, m.Value)
				}
				seen[m.Name] = true
			}
		}
	}
	for _, pl := range perLayer {
		if !seen[pl.name] {
			t.Errorf("per-layer metric %s is in the table but no workload reports it", pl.name)
		}
	}
}
