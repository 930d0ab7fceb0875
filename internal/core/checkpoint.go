package core

import (
	"fmt"
	"math"
	"sort"

	"fragalloc/internal/checkpoint"
)

// This file is the bridge between the decomposition driver and the durable
// journal of internal/checkpoint (DESIGN.md §3.9). The driver names every
// subproblem with a deterministic path id ("r" for the root, "r.2.0" for the
// first child of the root's third chunk), journals each completed solve under
// that id, and on resume replays proven-optimal records verbatim — so a
// resumed run reproduces the uninterrupted run's allocation bit for bit —
// while feasible and degraded records, and every record below a subproblem
// solved again, come back as warm-start hints for a fresh solve that may
// only improve them.

// runKey fingerprints the inputs that shape the optimization model: the
// workload and scenario digests, K, the decomposition spec, and the solver
// options that change the model itself (α, partial clustering).
// Budgets (TimeLimit, iteration limits) and Parallelism are deliberately
// excluded: re-running with a larger budget or different core count must be
// allowed to resume the same journal — the subproblems are the same, only
// how long we work on them differs.
func runKey(root *subproblem, spec *ChunkSpec) string {
	// The constant "-ab0" field keeps the key equal to the one earlier
	// commits journaled, so their journals still bind.
	return fmt.Sprintf("w%016x-s%016x-k%d-c%s-a%x-f%d-ab0",
		root.w.Digest(), root.ss.Digest(), root.k, spec, math.Float64bits(alpha), len(root.fixedQ))
}

// subCheckpoint pairs the run's recorder with one subproblem's journal id.
type subCheckpoint struct {
	rec *checkpoint.Recorder
	id  string
}

// finite clamps NaN and ±Inf to 0: the journal is JSON, which cannot encode
// them, and a non-finite value in solver output is noise no resume should
// reproduce anyway.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// recordFromSolution is the journal copy of a completed solve, a degraded
// one included: the greedy routing is journaled exactly like a MIP routing.
// The copy's scalars are clamped by finite; its routes are the solution's
// own, so their shares are clamped in place.
func recordFromSolution(sol *solution) *checkpoint.SubRecord {
	rec := sol.SubRecord
	rec.L, rec.Gap, rec.ExtraBytes = finite(rec.L), finite(rec.Gap), finite(rec.ExtraBytes)
	for _, rt := range rec.Z {
		for i, v := range rt.Shares {
			rt.Shares[i] = finite(v)
		}
	}
	return &rec
}

// recordCompatible sanity-checks a journaled record against the subproblem
// shape about to be solved: every per-subnode vector must have exactly B
// entries, and Yes and Z must be strictly ascending — the order every
// consumer of a solution relies on. The run key already guarantees the model
// matches; this guards against a journal written by a buggy or future build.
func recordCompatible(rec *checkpoint.SubRecord, b int) bool {
	if len(rec.Frags) != b {
		return false
	}
	for i, row := range rec.Yes {
		if len(row.On) != b || (i > 0 && rec.Yes[i-1].Q >= row.Q) {
			return false
		}
	}
	for i, rt := range rec.Z {
		if len(rt.Shares) != b {
			return false
		}
		if i > 0 {
			if prev := rec.Z[i-1]; prev.Q > rt.Q || (prev.Q == rt.Q && prev.S >= rt.S) {
				return false
			}
		}
	}
	return true
}

// hintFromRecord turns a journaled placement into the starting incumbent
// the solver accepts — how Feasible and Degraded records warm-start their
// re-solve on resume. flexQ is ascending, so it is its own query → position
// index; a journaled query this subproblem no longer holds (its parent was
// re-solved differently) is skipped.
func (sp *subproblem) hintFromRecord(rec *checkpoint.SubRecord) [][]bool {
	if len(rec.Yes) == 0 {
		return nil
	}
	hint := make([][]bool, len(sp.flexQ))
	for _, row := range rec.Yes {
		if q := sort.SearchInts(sp.flexQ, row.Q); q < len(sp.flexQ) && sp.flexQ[q] == row.Q {
			hint[q] = row.On
		}
	}
	return hint
}

// record journals a solve's record through logf, the run's logger: a
// completed solve's, or the incumbent of one in flight. Save failures are
// logged, never fatal: the recorder keeps the last one for the end-of-run
// report (SaveErr), and a full journal disk must not abort the solve.
func (ck *subCheckpoint) record(logf func(string, ...any), sol *solution) {
	if err := ck.rec.RecordSub(ck.id, recordFromSolution(sol)); err != nil {
		logf("core: checkpoint save failed for %s: %v", ck.id, err)
	}
}
