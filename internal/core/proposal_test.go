package core

import (
	"math"
	"testing"

	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
	"fragalloc/internal/simplex"
	"fragalloc/internal/tpcds"
)

// objective is cᵀx over p's columns in index order.
func objective(p *simplex.Problem, x []float64) float64 {
	var obj float64
	for j, c := range p.Obj {
		if c != 0 {
			obj += c * x[j]
		}
	}
	return obj
}

// fixYCompletion solves p with every integer column fixed at x's value: the
// completion LP mip would run for x's placement.
func fixYCompletion(t *testing.T, p *simplex.Problem, intVars []int, x []float64) float64 {
	t.Helper()
	q := *p
	q.LB = append([]float64(nil), p.LB...)
	q.UB = append([]float64(nil), p.UB...)
	for _, j := range intVars {
		q.LB[j], q.UB[j] = x[j], x[j]
	}
	res, err := simplex.Solve(&q, simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != simplex.StatusOptimal {
		t.Fatalf("fix-y completion ended %v", res.Status)
	}
	return res.Obj
}

// TestTrimmedProposalsAreComplete pins what lets mip take core's proposals
// without a completion LP. On golden TPC-DS subproblems, the trimmed dive
// start and root rounding each satisfy every bound and row of the
// subproblem MIP, at the objective of a completion LP that fixes their y
// and solves x, z and L.
func TestTrimmedProposalsAreComplete(t *testing.T) {
	full := tpcds.Workload()
	sub := tpcdsSubset(30)
	for _, c := range []struct {
		name  string
		w     *model.Workload
		ss    *model.ScenarioSet
		k     int
		fixed int
		spec  *ChunkSpec
	}{
		{"tpcds K=8 4+4 F=47 S=3 root", full, scenario.InSample(full, 3, scenario.DefaultP, 1), 8, 47, mustChunks(t, "4+4")},
		{"tpcds-top30 flat K=4 F=4 S=2", sub, scenario.InSample(sub, 2, scenario.DefaultP, 1), 4, 4, Flat(4)},
	} {
		sp, err := newRoot(c.w, c.ss, c.k, Options{FixedQueries: c.fixed})
		if err != nil {
			t.Fatal(err)
		}
		sp.split(c.spec)
		p, ix, intVars := sp.build()
		tr, err := sp.newTrimmer(ix, simplex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		relax, err := simplex.Solve(p, simplex.Options{})
		if err != nil || relax.Status != simplex.StatusOptimal {
			t.Fatalf("%s: root relaxation: %v %v", c.name, err, relax.Status)
		}
		var dive []float64
		if lp, root, _ := relaxation(p, simplex.Options{}, nil, nil); root != nil {
			dive, _ = sp.dive(lp, root, ix)
		}
		if dive == nil {
			t.Fatalf("%s: dive found no start", c.name)
		}
		for _, prop := range []struct {
			name string
			x    []float64
		}{
			{"dive start", dive},
			{"root rounding", sp.rounding(ix)(relax.X)},
		} {
			x := tr.trim(prop.x)
			if !p.Satisfies(x) {
				t.Errorf("%s, %s: the trimmed proposal breaks a bound or row", c.name, prop.name)
				continue
			}
			obj, lp := objective(p, x), fixYCompletion(t, p, intVars, x)
			if math.Abs(obj-lp) > 1e-9*math.Max(1, math.Abs(obj)) {
				t.Errorf("%s, %s: priced at %.12f, completion LP %.12f", c.name, prop.name, obj, lp)
			}
		}
	}
}
