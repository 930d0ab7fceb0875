package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/mip"
	"fragalloc/internal/scenario"
	"fragalloc/internal/simplex"
	"fragalloc/internal/tpcds"
)

// TestRolesNameTheModel checks that build records one role for every column
// and row of the dive's LP, each role once, and that each names what build
// made at its index: an x column costs its fragment's size over V, a y
// column is binary, a z column is bounded by its route's inherited share, L
// costs α with no upper bound; a cover row (4) is ≥ with −|q_j| on its y, a
// link row (5) is ≤ over two terms, a balance row (6) is ≤ and ends in −L,
// and a conservation row (7) is = to its route's share.
func TestRolesNameTheModel(t *testing.T) {
	for _, c := range rootCases() {
		sp, err := newRoot(c.w, c.ss, c.k, Options{FixedQueries: c.fixed})
		if err != nil {
			t.Fatal(err)
		}
		sp.split(mustChunks(t, c.spec))
		p, ix, intVars := sp.build()
		if len(ix.cols) != p.NumVars || len(ix.rows) != len(p.Rows) {
			t.Fatalf("%s: %d column and %d row roles for %d columns and %d rows", c.name, len(ix.cols), len(ix.rows), p.NumVars, len(p.Rows))
		}
		col := make(map[checkpoint.Role]int, len(ix.cols)+len(ix.rows)) // a row's role maps past the columns
		for i, r := range slices.Concat(ix.cols, ix.rows) {
			if _, ok := col[r]; ok {
				t.Fatalf("%s: role %v named twice", c.name, r)
			}
			col[r] = i
		}
		isInt := make(map[int]bool, len(intVars))
		for _, j := range intVars {
			isInt[j] = true
		}
		for j, r := range ix.cols {
			var ok bool
			switch r[0] {
			case roleX:
				ok = p.Obj[j] == c.w.Fragments[r[1]].Size/sp.vNorm
			case roleY:
				ok = isInt[j]
			case roleZ:
				ok = p.UB[j] == sp.shares[r[2]][r[1]]
			case roleL:
				ok = p.Obj[j] == alpha && math.IsInf(p.UB[j], 1)
			}
			if !ok {
				t.Errorf("%s: column %d (obj %v, bounds [%v,%v]) is not what role %v names", c.name, j, p.Obj[j], p.LB[j], p.UB[j], r)
			}
		}
		for i, r := range ix.rows {
			row, rel, rhs := p.Rows[i], p.Rel[i], p.RHS[i]
			coef := func(role checkpoint.Role) float64 {
				for k, j := range row.Idx {
					if j == col[role] {
						return row.Coef[k]
					}
				}
				return 0
			}
			var ok bool
			switch r[0] {
			case roleCover:
				ok = rel == simplex.GE && coef(checkpoint.Role{roleY, r[1], r[2]}) == -float64(len(c.w.Queries[r[1]].Fragments))
			case roleLink:
				ok = rel == simplex.LE && len(row.Idx) == 2
			case roleBalance:
				last := len(row.Idx) - 1
				ok = rel == simplex.LE && row.Idx[last] == col[checkpoint.Role{roleL}] && row.Coef[last] == -1
			case roleConserve:
				ok = rel == simplex.EQ && rhs == sp.shares[r[2]][r[1]]
			}
			if !ok {
				t.Errorf("%s: row %d (%v %v, %d terms) is not what role %v names", c.name, i, rel, rhs, len(row.Idx), r)
			}
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
		from := carriedBasis(journalBasis(lp.Basis(), ix), ix)
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
