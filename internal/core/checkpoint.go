package core

import (
	"fmt"
	"math"
	"sort"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
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
func runKey(w *model.Workload, ss *model.ScenarioSet, k int, spec *ChunkSpec, opt Options) string {
	// The constant "-ab0" field keeps the key equal to the one earlier
	// commits journaled, so their journals still bind.
	return fmt.Sprintf("w%016x-s%016x-k%d-c%s-a%x-f%d-ab0",
		w.Digest(), ss.Digest(), k, spec, math.Float64bits(opt.Alpha), opt.FixedQueries)
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
// the journal's running W; map-keyed fields are emitted in sorted order so
// the record bytes are deterministic.
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
	qs := make([]int, 0, len(sol.yes))
	for j := range sol.yes {
		qs = append(qs, j)
	}
	sort.Ints(qs)
	for _, j := range qs {
		rec.Yes = append(rec.Yes, checkpoint.YesRow{Q: j, On: sol.yes[j]})
	}
	keys := make([][2]int, 0, len(sol.z))
	for key := range sol.z {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, key := range keys {
		shares := sol.z[key]
		for i, v := range shares {
			shares[i] = finite(v)
		}
		rec.Z = append(rec.Z, checkpoint.Route{Q: key[0], S: key[1], Shares: shares})
	}
	return rec
}

// recordCompatible sanity-checks a journaled record against the subproblem
// shape about to be solved: every per-subnode vector must have exactly B
// entries. The run key already guarantees the model matches; this guards
// against a journal written by a buggy or future build.
func recordCompatible(rec *checkpoint.SubRecord, b int) bool {
	if len(rec.Frags) != b {
		return false
	}
	for _, row := range rec.Yes {
		if len(row.On) != b {
			return false
		}
	}
	for _, rt := range rec.Z {
		if len(rt.Shares) != b {
			return false
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
		yes:        make(map[int][]bool, len(rec.Yes)),
		z:          make(map[[2]int][]float64, len(rec.Z)),
		frags:      rec.Frags,
		l:          rec.L,
		gap:        rec.Gap,
		nodes:      rec.Nodes,
		exact:      rec.Exact,
		extraBytes: rec.ExtraBytes,
	}
	sol.outcome, _ = outcomeFromString(rec.Outcome)
	if sol.outcome == OutcomeOptimal {
		sol.status = mip.StatusOptimal
	} else {
		sol.status = mip.StatusFeasible
	}
	for _, row := range rec.Yes {
		sol.yes[row.Q] = row.On
	}
	for _, rt := range rec.Z {
		sol.z[[2]int{rt.Q, rt.S}] = rt.Shares
	}
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

// hintFromRecord converts a journaled routing into the query-placement map
// the solver accepts as a starting incumbent — how Feasible and Degraded
// records warm-start their re-solve on resume.
func hintFromRecord(rec *checkpoint.SubRecord) map[int][]bool {
	if len(rec.Yes) == 0 {
		return nil
	}
	hint := make(map[int][]bool, len(rec.Yes))
	for _, row := range rec.Yes {
		hint[row.Q] = row.On
	}
	return hint
}

// record journals a completed solve; save failures are logged, never fatal.
func (ck *subCheckpoint) record(d *driver, sol *solution, leaf bool) {
	if err := ck.rec.RecordSub(ck.id, recordFromSolution(d, sol, leaf)); err != nil {
		d.logf("core: checkpoint save failed for %s: %v", ck.id, err)
	}
}
