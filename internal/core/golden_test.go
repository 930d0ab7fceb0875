package core

import (
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
	"fragalloc/internal/tpcds"
)

func hashInts(h hash.Hash64, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// allocDigest folds the answer of one Allocate run — every node's fragment
// set, every routing share bit, W and V — into one FNV-64a sum. A change
// that makes the search cheaper without changing what it finds leaves it
// alone.
func allocDigest(res *Result) uint64 {
	h := fnv.New64a()
	for _, frags := range res.Allocation.Fragments {
		hashInts(h, len(frags))
		hashInts(h, frags...)
	}
	for _, perScenario := range res.Allocation.Shares {
		for _, perQuery := range perScenario {
			hashFloats(h, perQuery...)
		}
	}
	hashFloats(h, res.W, res.V)
	return h.Sum64()
}

// workDigest folds how one Allocate run got there — the search statistics,
// the outcome tally — and the newest journal generation's payload into one
// FNV-64a sum. It moves whenever the search does less or different work.
func workDigest(t *testing.T, res *Result, st *checkpoint.Store) uint64 {
	t.Helper()
	h := fnv.New64a()
	hashInts(h, res.BBNodes, res.LPIters, res.Outcomes.Optimal, res.Outcomes.Feasible, res.Outcomes.Degraded)
	payload, err := st.LoadRaw()
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) == 0 {
		t.Fatal("journal is empty after a checkpointed run")
	}
	h.Write(payload)
	return h.Sum64()
}

// goldenRun solves one journaled instance into a fresh directory; prev, when
// non-empty, is a journal directory to resume from, and carry the bases the
// run's dives start from.
func goldenRun(t *testing.T, w *model.Workload, ss *model.ScenarioSet, k int, opt Options, prev string, carry map[string]*checkpoint.Basis) (*Result, *checkpoint.Store) {
	t.Helper()
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var snap *checkpoint.Snapshot
	if prev != "" {
		old, err := checkpoint.Open(prev)
		if err != nil {
			t.Fatal(err)
		}
		if snap, err = old.Load(); err != nil {
			t.Fatal(err)
		}
	}
	opt.Checkpoint = checkpoint.NewRecorder(st, snap)
	opt.Checkpoint.Carry(carry)
	res, err := Allocate(w, ss, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// journaledBases reads the bases a run journaled in st back, by subproblem
// id, as the allocation service carries them to its next solve.
func journaledBases(t *testing.T, st *checkpoint.Store) map[string]*checkpoint.Basis {
	t.Helper()
	snap, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	return checkpoint.NewRecorder(nil, snap).Bases()
}

func mustChunks(t *testing.T, s string) *ChunkSpec {
	t.Helper()
	spec, err := ParseChunks(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestPipelineGolden pins the whole core pipeline — model build, dive, trim,
// hints, branch and bound, decode, child derivation, degradation, journal —
// with two digests per run: the allocation (what the run found) and the work
// (nodes, LP iterations, outcome tally and journal bytes: what it took to
// find it). A change that only makes the search cheaper re-records the work
// digests and leaves every allocation digest alone. Every budget is a node
// count, so each digest must come out the same at every parallelism; a
// change that moves one LP column, one coefficient, one sort tie-break or
// one journal byte fails here.
func TestPipelineGolden(t *testing.T) {
	full := tpcds.Workload()
	budget := mip.Options{MaxNodes: 60, MaxStallNodes: 30}
	for _, par := range []int{1, 2} {
		check := func(name string, res *Result, st *checkpoint.Store, wantAlloc, wantWork uint64) {
			t.Helper()
			t.Logf("%s: %d nodes, %d LP iterations, W/V %.6f, %v", name, res.BBNodes, res.LPIters, res.ReplicationFactor, res.Outcomes)
			if got := allocDigest(res); got != wantAlloc {
				t.Errorf("%s, parallelism %d: allocation digest %#016x, want %#016x (W/V %.6f)",
					name, par, got, wantAlloc, res.ReplicationFactor)
			}
			if got := workDigest(t, res, st); got != wantWork {
				t.Errorf("%s, parallelism %d: work digest %#016x, want %#016x (%d nodes, %d LP iterations, %v)",
					name, par, got, wantWork, res.BBNodes, res.LPIters, res.Outcomes)
			}
		}

		// (a) the robust clustered row: three 4+4 subproblems, three scenarios.
		res, st := goldenRun(t, full, scenario.InSample(full, 3, scenario.DefaultP, 1), 8,
			Options{Chunks: mustChunks(t, "4+4"), FixedQueries: 47, Parallelism: par, MIP: budget}, "", nil)
		check("tpcds K=8 4+4 F=47 S=3", res, st, 0x66617e1d6cda8227, 0x2aee14e222334361)

		// (b) allocd's re-optimization shape: warm-started from the allocation
		// of a neighbouring scenario draw, its dives from that run's bases.
		prior, pst := goldenRun(t, full, scenario.InSample(full, 4, scenario.DefaultP, 2), 4,
			Options{Chunks: mustChunks(t, "2+2"), FixedQueries: 64, Parallelism: par, MIP: budget}, "", nil)
		res, st = goldenRun(t, full, scenario.InSample(full, 4, scenario.DefaultP, 1), 4,
			Options{Chunks: mustChunks(t, "2+2"), FixedQueries: 64, Parallelism: par, MIP: budget, Warm: prior.Allocation}, "", journaledBases(t, pst))
		if res.Starts.Dives+res.Starts.DivesCold != 3 {
			t.Errorf("warm run: %v, want every dive offered the prior run's basis", res.Starts)
		}
		check("tpcds K=4 2+2 F=64 S=4 warm", res, st, 0xb7501015b9e14caf, 0x6f3baf925d3b83c2)

		// (c) a flat solve: the hierarchical pre-solve, the greedy hint and a
		// warm hint all seed one root MIP.
		sub := tpcdsSubset(30)
		seen := scenario.InSample(sub, 2, scenario.DefaultP, 1)
		res, st = goldenRun(t, sub, seen, 4,
			Options{FixedQueries: 4, Parallelism: par, MIP: budget, Warm: prior.Allocation}, "", nil)
		check("tpcds-top30 flat K=4", res, st, 0xdfc68a7506a4eb89, 0x6e12fb9bc1c555ca)

		// (d) every subproblem degrades to the greedy routing; then a clean
		// run resumes that journal, so the degraded records come back as
		// starting placements.
		res, st = goldenRun(t, sub, seen, 4,
			Options{Chunks: mustChunks(t, "2+2"), FixedQueries: 4, Parallelism: par, MIP: faultedMIP()}, "", nil)
		if res.Outcomes.Degraded != 3 {
			t.Fatalf("faulted run: outcomes %v, want 3 degraded", res.Outcomes)
		}
		check("degraded 2+2", res, st, 0x9779327d62a25b8a, 0x5a2223821f790830)
		res, st = goldenRun(t, sub, seen, 4,
			Options{Chunks: mustChunks(t, "2+2"), FixedQueries: 4, Parallelism: par, MIP: budget}, st.Dir(), nil)
		check("resumed from degraded journal", res, st, 0x40a3e238ba4843af, 0xdbda05a7a6c01289)
	}

	// The greedy allocator only refuses non-finite capacities, which no chunk
	// spec produces, so the last-resort routing is driven directly: a root
	// subproblem whose second weight poisons the capacity vector.
	sub := tpcdsSubset(30)
	seen := scenario.InSample(sub, 2, scenario.DefaultP, 1)
	rec, err := json.Marshal(fallbackRecord(t, sub, seen))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(rec)
	if got, want := h.Sum64(), uint64(0x338ef40e2343bbb6); got != want {
		t.Errorf("fallback routing: record digest %#016x, want %#016x", got, want)
	}
}

// fallbackRecord degrades the root subproblem of (w, ss) over two subnodes,
// the second of infinite weight, and returns the journal record of the
// result.
func fallbackRecord(t *testing.T, w *model.Workload, ss *model.ScenarioSet) *checkpoint.SubRecord {
	t.Helper()
	sp, err := newRoot(w, ss, 2, Options{FixedQueries: 4})
	if err != nil {
		t.Fatal(err)
	}
	sp.weights = []float64{0.5, math.Inf(1)}
	sol := sp.degrade()
	routed := 0
	for _, row := range sol.yes {
		for _, v := range row.On {
			if v {
				routed++
			}
		}
	}
	if routed != len(sp.flexQ) {
		t.Fatalf("fallback routing placed %d (query, subnode) pairs, want one per flexible query (%d): the greedy path ran instead", routed, len(sp.flexQ))
	}
	return recordFromSolution(sol)
}
