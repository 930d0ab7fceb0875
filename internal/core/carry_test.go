package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/mip"
	"fragalloc/internal/scenario"
	"fragalloc/internal/simplex"
	"fragalloc/internal/tpcds"
)

// TestRolesNameTheModel checks that roles names every column and row of the
// dive's LP, each once.
func TestRolesNameTheModel(t *testing.T) {
	for _, c := range rootCases() {
		sp, err := newRoot(c.w, c.ss, c.k, Options{FixedQueries: c.fixed})
		if err != nil {
			t.Fatal(err)
		}
		sp.split(mustChunks(t, c.spec))
		p, ix, _ := sp.build()
		roles := sp.roles(ix)
		if len(roles) != p.NumVars+len(p.Rows) {
			t.Fatalf("%s: %d roles for %d columns and %d rows", c.name, len(roles), p.NumVars, len(p.Rows))
		}
		seen := make(map[checkpoint.Role]bool, len(roles))
		for _, r := range roles {
			if seen[r] {
				t.Fatalf("%s: role %v named twice", c.name, r)
			}
			seen[r] = true
		}
	}
}

// TestCarriedBasisRestartsTheRelaxation journals the optimal basis of a
// subproblem's relaxation by role and maps it back: the relaxation started
// from it is optimal at once and counts as a dive from the basis.
func TestCarriedBasisRestartsTheRelaxation(t *testing.T) {
	for _, c := range rootCases() {
		sp, err := newRoot(c.w, c.ss, c.k, Options{FixedQueries: c.fixed})
		if err != nil {
			t.Fatal(err)
		}
		sp.split(mustChunks(t, c.spec))
		p, ix, _ := sp.build()
		lp, cold, _ := relaxation(p, simplex.Options{}, nil, nil)
		if cold == nil {
			t.Fatalf("%s: relaxation failed", c.name)
		}
		roles := sp.roles(ix)
		from := carriedBasis(journalBasis(lp.Basis(), roles), roles, p.NumVars)
		_, warm, starts := relaxation(p, simplex.Options{}, from, nil)
		if warm == nil || warm.Iters != 0 || math.Abs(warm.Obj-cold.Obj) > 1e-9*math.Abs(cold.Obj) {
			t.Fatalf("%s: from the carried basis %v; want the cold optimum %v in 0 pivots", c.name, warm != nil, cold.Obj)
		}
		if starts != (BasisStarts{Dives: 1}) {
			t.Errorf("%s: %v, want one dive from the basis", c.name, starts)
		}
	}
}

// TestForeignBasisStartsCold hands a run bases whose roles name nothing in
// its models: every dive starts cold, nothing errors, and the allocation is
// the one a run without bases finds.
func TestForeignBasisStartsCold(t *testing.T) {
	full := tpcds.Workload()
	ss := scenario.InSample(full, 2, scenario.DefaultP, 1)
	opt := Options{Chunks: mustChunks(t, "2+2"), FixedQueries: 64, Parallelism: 1, MIP: mip.Options{MaxNodes: 20}}
	plain, _ := goldenRun(t, full, ss, 4, opt, "", nil)
	foreign := &checkpoint.Basis{Basic: []checkpoint.Role{{99, 1, 2, 3}}, Tight: []checkpoint.Role{{98}}}
	res, _ := goldenRun(t, full, ss, 4, opt, "", map[string]*checkpoint.Basis{"r": foreign, "r.0": foreign, "r.1": foreign})
	if res.Starts != plain.Starts || res.Starts.Dives+res.Starts.DivesCold != 0 {
		t.Errorf("starts %v with foreign bases, %v without; want no dive from a basis", res.Starts, plain.Starts)
	}
	if allocDigest(res) != allocDigest(plain) || res.LPIters != plain.LPIters {
		t.Errorf("foreign bases moved the run: %d LP iterations, W/V %v; without them %d, %v",
			res.LPIters, res.ReplicationFactor, plain.LPIters, plain.ReplicationFactor)
	}
}

// TestBasesCarryAcrossDrift solves a drifted scenario set twice, once from
// the bases a run on the set before the drift journaled: every subproblem
// journals a basis, every dive of the second run starts from one, and it
// spends fewer simplex pivots than the run from scratch.
func TestBasesCarryAcrossDrift(t *testing.T) {
	full := tpcds.Workload()
	before := scenario.InSample(full, 3, scenario.DefaultP, 1)
	after := before.Clone()
	for j := range after.Frequencies[0] {
		after.Frequencies[0][j] *= 1 + 0.05*float64(j%3)
	}
	opt := Options{Chunks: mustChunks(t, "2+2"), FixedQueries: 64, Parallelism: 1, MIP: mip.Options{MaxNodes: 60, MaxStallNodes: 30}}
	_, st := goldenRun(t, full, before, 4, opt, "", nil)
	bases := journaledBases(t, st)
	if len(bases) != 3 {
		t.Fatalf("journaled bases for %d subproblems, want 3", len(bases))
	}
	cold, _ := goldenRun(t, full, after, 4, opt, "", nil)
	warm, _ := goldenRun(t, full, after, 4, opt, "", bases)
	t.Logf("cold: %d LP iterations, %v; carried: %d LP iterations, %v", cold.LPIters, cold.Starts, warm.LPIters, warm.Starts)
	if warm.Starts.Dives+warm.Starts.DivesCold != 3 || warm.Starts.Dives == 0 {
		t.Errorf("carried run: %v, want every dive offered a basis and at least one to start from it", warm.Starts)
	}
	if warm.LPIters >= cold.LPIters {
		t.Errorf("carried run took %d LP iterations, the cold one %d", warm.LPIters, cold.LPIters)
	}
}

// TestRefusedCarriedBasisIsLogged carries bases across a drift into a run
// whose iteration limit no LP can meet: a dive root's start from its carried
// basis ends at the limit and is refused, and the run's own logger says so.
func TestRefusedCarriedBasisIsLogged(t *testing.T) {
	full := tpcds.Workload()
	before := scenario.InSample(full, 3, scenario.DefaultP, 1)
	after := before.Clone()
	for j := range after.Frequencies[0] {
		after.Frequencies[0][j] *= 1 + 0.05*float64(j%3)
	}
	opt := Options{Chunks: mustChunks(t, "2+2"), FixedQueries: 64, Parallelism: 1, MIP: mip.Options{MaxNodes: 60, MaxStallNodes: 30}}
	_, st := goldenRun(t, full, before, 4, opt, "", nil)
	var lines []string
	opt.Logf = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	opt.MIP.LP.MaxIters = 1
	goldenRun(t, full, after, 4, opt, "", journaledBases(t, st))
	for _, l := range lines {
		if strings.HasPrefix(l, "core: dive root from the carried basis ended ") && strings.HasSuffix(l, "; solving cold") {
			return
		}
	}
	t.Errorf("no log line says that a carried start was refused:\n%s", strings.Join(lines, "\n"))
}
