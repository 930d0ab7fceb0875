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

// goldenDigest folds everything a caller can observe of one Allocate run —
// placement, every routing share bit, the search statistics, the outcome
// tally — and the newest journal generation's payload into one FNV-64a sum.
func goldenDigest(t *testing.T, res *Result, st *checkpoint.Store) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, frags := range res.Allocation.Fragments {
		hashInts(h, len(frags))
		hashInts(h, frags...)
	}
	var buf [8]byte
	for _, perScenario := range res.Allocation.Shares {
		for _, perQuery := range perScenario {
			for _, z := range perQuery {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(z))
				h.Write(buf[:])
			}
		}
	}
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
// non-nil, is a journal directory to resume from.
func goldenRun(t *testing.T, w *model.Workload, ss *model.ScenarioSet, k int, opt Options, prev string) (*Result, *checkpoint.Store) {
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
	opt.Checkpoint = checkpoint.NewRecorder(st, snap, 0)
	res, err := Allocate(w, ss, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
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
// to digests recorded in PR 18, with the simplex's work-balanced refresh in
// place. Every budget is a node count, so each digest must come out the
// same at every parallelism; a change that moves one LP column, one
// coefficient, one sort tie-break or one journal byte fails here.
func TestPipelineGolden(t *testing.T) {
	full := tpcds.Workload()
	budget := mip.Options{MaxNodes: 60, MaxStallNodes: 30}
	for _, par := range []int{1, 2} {
		check := func(name string, res *Result, st *checkpoint.Store, want uint64) {
			t.Helper()
			t.Logf("%s: %d nodes, %d LP iterations, W/V %.6f, %v", name, res.BBNodes, res.LPIters, res.ReplicationFactor, res.Outcomes)
			if got := goldenDigest(t, res, st); got != want {
				t.Errorf("%s, parallelism %d: digest %#016x, want %#016x (%d nodes, %d LP iterations, %v)",
					name, par, got, want, res.BBNodes, res.LPIters, res.Outcomes)
			}
		}

		// (a) the robust clustered row: three 4+4 subproblems, three scenarios.
		res, st := goldenRun(t, full, scenario.InSample(full, 3, scenario.DefaultP, 1), 8,
			Options{Chunks: mustChunks(t, "4+4"), FixedQueries: 47, Parallelism: par, MIP: budget}, "")
		check("tpcds K=8 4+4 F=47 S=3", res, st, 0x03747fd5295619f4)

		// (b) allocd's re-optimization shape: warm-started from the allocation
		// of a neighbouring scenario draw.
		prior, _ := goldenRun(t, full, scenario.InSample(full, 4, scenario.DefaultP, 2), 4,
			Options{Chunks: mustChunks(t, "2+2"), FixedQueries: 64, Parallelism: par, MIP: budget}, "")
		res, st = goldenRun(t, full, scenario.InSample(full, 4, scenario.DefaultP, 1), 4,
			Options{Chunks: mustChunks(t, "2+2"), FixedQueries: 64, Parallelism: par, MIP: budget, Warm: prior.Allocation}, "")
		check("tpcds K=4 2+2 F=64 S=4 warm", res, st, 0x2ba75c013fcd0701)

		// (c) a flat solve: the hierarchical pre-solve, the greedy hint and a
		// warm hint all seed one root MIP.
		sub := tpcdsSubset(30)
		seen := scenario.InSample(sub, 2, scenario.DefaultP, 1)
		res, st = goldenRun(t, sub, seen, 4,
			Options{FixedQueries: 4, Parallelism: par, MIP: budget, Warm: prior.Allocation}, "")
		check("tpcds-top30 flat K=4", res, st, 0x80ef69f775a5a86a)

		// (d) every subproblem degrades to the greedy routing; then a clean
		// run resumes that journal, so the degraded records come back as
		// starting placements.
		res, st = goldenRun(t, sub, seen, 4,
			Options{Chunks: mustChunks(t, "2+2"), FixedQueries: 4, Parallelism: par, MIP: faultedMIP()}, "")
		if res.Outcomes.Degraded != 3 {
			t.Fatalf("faulted run: outcomes %v, want 3 degraded", res.Outcomes)
		}
		check("degraded 2+2", res, st, 0x6a5a9f4c8071c190)
		res, st = goldenRun(t, sub, seen, 4,
			Options{Chunks: mustChunks(t, "2+2"), FixedQueries: 4, Parallelism: par, MIP: budget}, st.Dir())
		check("resumed from degraded journal", res, st, 0xcf2ef7db468f5150)
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
	if got, want := h.Sum64(), uint64(0xa22c183cf3097a1f); got != want {
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
	return recordFromSolution(&driver{w: w}, sol, true)
}
