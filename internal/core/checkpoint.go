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
// while feasible and degraded records come back as warm-start hints for a
// fresh solve that may only improve them.

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

// subCkpt returns the journal handle for subproblem id, or nil when the run
// is not checkpointed.
func (d *driver) subCkpt(id string) *subCheckpoint {
	if d.opt.Checkpoint == nil {
		return nil
	}
	return &subCheckpoint{rec: d.opt.Checkpoint, id: id}
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

// recordFromSolution serializes a completed subproblem solve — including a
// degraded one: the greedy routing is journaled exactly like a MIP routing,
// not just its DegradedDelta cost. leaf marks exact groups, whose bytes feed
// the journal's running W. The solution already holds its placement and
// routing in the journal's shape and order; the record shares them.
func recordFromSolution(d *driver, sol *solution, leaf bool) *checkpoint.SubRecord {
	rec := &checkpoint.SubRecord{
		Outcome:    sol.outcome.String(),
		L:          finite(sol.l),
		Gap:        finite(sol.gap),
		Nodes:      sol.nodes,
		Exact:      sol.exact,
		ExtraBytes: finite(sol.extraBytes),
		Leaf:       leaf,
		Frags:      sol.frags,
		Yes:        sol.yes,
		Z:          sol.z,
	}
	if leaf {
		var bytes float64
		for _, frags := range sol.frags {
			for _, i := range frags {
				bytes += d.w.Fragments[i].Size
			}
		}
		rec.Bytes = finite(bytes)
	}
	for _, rt := range rec.Z {
		for i, v := range rt.Shares {
			rt.Shares[i] = finite(v)
		}
	}
	return rec
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

// solutionFromRecord is the replay inverse of recordFromSolution: it
// reconstructs the decoded solution a proven-optimal solve produced, so the
// driver's assembly and child derivation run on identical data and the
// resumed allocation matches the uninterrupted one bit for bit (JSON float64
// encoding round-trips exactly).
func solutionFromRecord(rec *checkpoint.SubRecord) *solution {
	sol := &solution{
		yes:        rec.Yes,
		z:          rec.Z,
		frags:      rec.Frags,
		l:          rec.L,
		gap:        rec.Gap,
		nodes:      rec.Nodes,
		exact:      rec.Exact,
		extraBytes: rec.ExtraBytes,
	}
	sol.outcome, _ = outcomeFromString(rec.Outcome)
	return sol
}

// outcomeFromString parses the Outcome strings the journal stores.
func outcomeFromString(s string) (Outcome, bool) {
	switch s {
	case "optimal":
		return OutcomeOptimal, true
	case "feasible":
		return OutcomeFeasible, true
	case "degraded":
		return OutcomeDegraded, true
	}
	return 0, false
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

// record journals a completed solve; save failures are logged, never fatal.
func (ck *subCheckpoint) record(d *driver, sol *solution, leaf bool) {
	if err := ck.rec.RecordSub(ck.id, recordFromSolution(d, sol, leaf)); err != nil {
		d.logf("core: checkpoint save failed for %s: %v", ck.id, err)
	}
}
