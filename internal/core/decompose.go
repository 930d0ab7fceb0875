package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/greedy"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
)

// alpha is the penalty weight on the worst-case load limit L in objective
// (3). It must be large relative to K so that even balancing dominates memory
// savings; 1000 is the paper's choice.
const alpha = 1000.0

// Options configure Allocate. The zero value solves the model exactly
// (single chunk, no fixed queries).
type Options struct {
	// Chunks is the decomposition spec (Section 2.2.3). nil means Flat(K),
	// the exact solve. Its total leaves must equal K.
	Chunks *ChunkSpec
	// FixedQueries is F, the number of lowest-load queries pinned to node 0
	// by the partial clustering constraints (9) (Section 3.2). 0 disables
	// clustering.
	FixedQueries int
	// Parallelism bounds the number of concurrently solved subproblems:
	// sibling decomposition chunks and the hint pre-solves of a group run
	// on a shared worker pool of this size. 0 means runtime.GOMAXPROCS(0);
	// 1 forces the serial driver. The allocation and shares are identical
	// for every value — concurrency changes scheduling, never arithmetic —
	// since every budget counts work; only a Canceled that fires mid-run
	// makes a result depend on timing.
	Parallelism int
	// MIP passes budgets (node limit, stall rule, gap) to each subproblem
	// solve. MaxNodes applies per subproblem. Its Canceled, LP.Canceled
	// and Logf are not read: every subproblem solve is handed Canceled and
	// Logf below in their place.
	MIP mip.Options
	// Warm, when non-nil, seeds every split's solve with an incumbent
	// allocation from a previous run, so re-optimizing a drifted instance
	// begins from the previously served allocation instead of from scratch
	// (the allocation service's incremental re-optimization path, DESIGN.md
	// §3.11). Each split reads one more starting placement off it by the
	// projection the greedy and hierarchical hints go through: subnode b
	// proposes a flexible query when some final node in b's leaf range can
	// run it under Warm — for a flat root, one node per subnode. Like every
	// hint it is advisory — it never changes the model (runKey ignores it)
	// and a worse proposal is simply not adopted. K may differ from Warm.K:
	// only the overlapping node prefix seeds the start.
	Warm *model.Allocation
	// Canceled, when non-nil, is the run's one stop hook. The driver polls
	// it between subproblems and hands it, as it stands, to every search
	// (MIP.Canceled) and to every LP outside one (MIP.LP.Canceled), so it is
	// polled down to the individual simplex iterations. Once it
	// returns true, in-flight subproblems wind down with their best
	// incumbents, untouched ones degrade straight to the greedy allocator,
	// and Allocate still returns a complete, feasible allocation with
	// Result.Canceled set. The hook must be cheap and safe to call from
	// multiple goroutines.
	Canceled func() bool
	// Checkpoint is the run's journal: every completed subproblem is
	// recorded immediately, and a search in flight records the feasible
	// record of its incumbent every MIP.CheckpointEvery under the same id
	// (DESIGN.md §3.9); a Recorder with a Store makes that durable. nil
	// journals in memory, in a fresh Recorder. On a recorder resumed from
	// a prior run's journal, proven-optimal subproblems are replayed
	// verbatim — the final allocation is bit-identical to the
	// uninterrupted run — while feasible records, in-flight ones included,
	// degraded ones and any record below a subproblem solved again
	// warm-start their re-solve. Allocate fails if the journal was written
	// for different inputs (see Recorder.Bind).
	Checkpoint *checkpoint.Recorder
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Result reports the allocation and solve statistics.
type Result struct {
	// Allocation holds the fragment placement and the certified in-sample
	// routing shares for every scenario.
	Allocation *model.Allocation
	// W is the total allocated data, V the total accessed data (union over
	// all scenarios); ReplicationFactor is W/V.
	W, V              float64
	ReplicationFactor float64
	// MaxLoad is the largest normalized subnode load over all subproblem
	// solves; 1.0 means every scenario balances perfectly.
	MaxLoad float64
	// SolveTime is the wall-clock time spent in Allocate.
	SolveTime time.Duration
	// BBNodes is the total number of branch-and-bound nodes across all
	// subproblems; MaxGap the largest remaining absolute objective gap of
	// any subproblem (incumbent − proven bound, approximately in W/V
	// units); Exact is true when every subproblem was solved to proven
	// optimality.
	BBNodes int
	// LPIters is the total simplex iteration count across all subproblem
	// LP relaxations and re-solves — with BBNodes, the pair benchmarks
	// how hard the searches worked independent of wall clock.
	LPIters int
	MaxGap  float64
	Exact   bool
	// FixedQueries lists the queries pinned to node 0 by partial
	// clustering, in ascending order of expected load.
	FixedQueries []int
	// Starts counts the LPs of the subproblem solves that started from a
	// basis, and those whose start from one was refused.
	Starts BasisStarts
	// Outcomes tallies how the failure policy resolved each subproblem:
	// proven optimal, budget-terminated feasible, or degraded to the greedy
	// allocator (DESIGN.md §3.7).
	Outcomes OutcomeCounts
	// DegradedDelta is the aggregate replication-factor cost of the
	// degraded subproblems: their allocated bytes beyond the single-copy
	// floor of the coverage they chose, normalized by V. Zero when nothing
	// degraded; an approximate upper bound on what degradation cost over an
	// exact solve.
	DegradedDelta float64
	// Canceled reports that Options.Canceled cut the run short. The
	// allocation is still complete and feasible — unfinished subproblems
	// carry their best incumbent or a greedy fallback.
	Canceled bool
}

// Allocate computes a robust fragment allocation of workload w for the
// scenario set ss onto k nodes using the paper's LP-based approach:
// model (3)–(7), recursive decomposition per opt.Chunks, and partial
// clustering of opt.FixedQueries low-load queries.
func Allocate(w *model.Workload, ss *model.ScenarioSet, k int, opt Options) (*Result, error) {
	start := time.Now()
	root, err := newRoot(w, ss, k, opt)
	if err != nil {
		return nil, err
	}
	ss = root.ss
	spec := opt.Chunks
	if spec == nil {
		spec = Flat(k)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Leaves != k {
		return nil, fmt.Errorf("core: chunk spec %q covers %d nodes, want K=%d", spec, spec.Leaves, k)
	}

	if opt.Checkpoint == nil {
		opt.Checkpoint = checkpoint.NewRecorder(nil, nil)
	}
	d := &driver{
		w: w, ss: ss, opt: opt, alloc: newAllocation(w, ss, k), exact: true,
		gate: newGate(opt.Parallelism), logMu: &sync.Mutex{},
	}
	d.logf("core: allocating K=%d with spec %v (%d exact groups, parallelism %d)",
		k, spec, spec.Groups(), d.gate.width())
	if err := opt.Checkpoint.Bind(runKey(root, spec)); err != nil {
		return nil, err
	}
	if opt.Checkpoint.Resumed() {
		d.logf("core: resuming from checkpoint journal (%d subproblem records)", opt.Checkpoint.Len())
	}
	if err := d.solve(root, spec, 0, "r", true); err != nil {
		return nil, err
	}

	res := &Result{
		Allocation:    d.alloc,
		W:             d.alloc.TotalData(w),
		V:             root.vNorm,
		MaxLoad:       d.maxLoad,
		SolveTime:     time.Since(start),
		BBNodes:       d.nodes,
		LPIters:       d.lpiters,
		MaxGap:        d.maxGap,
		Exact:         d.exact,
		FixedQueries:  root.fixedQ,
		Outcomes:      d.outcomes,
		Starts:        d.starts,
		DegradedDelta: d.degradedBytes / root.vNorm,
		Canceled:      d.canceled(),
	}
	res.ReplicationFactor = res.W / root.vNorm
	return res, nil
}

// newRoot validates the inputs and builds the root subproblem: every active
// query with full share in every scenario, the opt.FixedQueries lightest of
// them pinned to node 0. A nil ss means the workload's default scenario;
// the one used is root.ss. The caller still has to split it.
func newRoot(w *model.Workload, ss *model.ScenarioSet, k int, opt Options) (*subproblem, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if ss == nil {
		ss = model.DefaultScenario(w)
	}
	if err := ss.Validate(w); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", k)
	}
	active := activeQueries(w, ss)
	if len(active) == 0 {
		return nil, fmt.Errorf("core: no query carries load in any scenario")
	}
	v := w.AccessedDataSize(ss.Frequencies...)
	if v <= 0 {
		return nil, fmt.Errorf("core: accessed data size is zero")
	}
	fixed, flex, err := splitFixed(w, ss, active, opt.FixedQueries, k)
	if err != nil {
		return nil, err
	}
	shares := make([][]float64, ss.S())
	for s := range shares {
		shares[s] = make([]float64, len(w.Queries))
		for _, j := range active {
			shares[s][j] = 1
		}
	}
	activeFrag := make([]bool, len(w.Fragments))
	for _, j := range active {
		for _, i := range w.Queries[j].Fragments {
			activeFrag[i] = true
		}
	}
	root := &subproblem{
		w: w, ss: ss, costs: ss.TotalCosts(w), k: k, vNorm: v,
		activeFrag: activeFrag, flexQ: flex, fixedQ: fixed, shares: shares,
		hasFixed: true,
	}
	return root.index(), nil
}

// newAllocation returns an empty K-node allocation with zeroed routing
// shares for every (scenario, query).
func newAllocation(w *model.Workload, ss *model.ScenarioSet, k int) *model.Allocation {
	alloc := model.NewAllocation(k)
	alloc.Shares = make([][][]float64, ss.S())
	for s := range alloc.Shares {
		alloc.Shares[s] = make([][]float64, len(w.Queries))
		for j := range alloc.Shares[s] {
			alloc.Shares[s][j] = make([]float64, k)
		}
	}
	return alloc
}

// activeQueries returns the queries with positive load in at least one
// scenario, ascending by ID.
func activeQueries(w *model.Workload, ss *model.ScenarioSet) []int {
	var active []int
	for j := range w.Queries {
		if w.Queries[j].Cost <= 0 {
			continue
		}
		for s := 0; s < ss.S(); s++ {
			if ss.Frequencies[s][j] > 0 {
				active = append(active, j)
				break
			}
		}
	}
	return active
}

// splitFixed orders the active queries by expected load and pins the f
// smallest to node 0, verifying that their combined share stays below 1/K
// in every scenario (otherwise even balancing is impossible).
func splitFixed(w *model.Workload, ss *model.ScenarioSet, active []int, f, k int) (fixed, flex []int, err error) {
	if f < 0 {
		return nil, nil, fmt.Errorf("core: FixedQueries must be non-negative, got %d", f)
	}
	if f > len(active) {
		return nil, nil, fmt.Errorf("core: FixedQueries=%d exceeds the %d active queries", f, len(active))
	}
	loads := ss.ExpectedLoads(w)
	order := append([]int(nil), active...)
	sort.SliceStable(order, func(a, b int) bool {
		//fragvet:ignore floatcmp — sort comparator: the exact != keeps the ordering antisymmetric and transitive; a tolerance would not
		if loads[order[a]] != loads[order[b]] {
			return loads[order[a]] < loads[order[b]]
		}
		return order[a] < order[b]
	})
	fixed = append([]int(nil), order[:f]...)
	flex = append([]int(nil), order[f:]...)
	sort.Ints(fixed)
	sort.Ints(flex)

	costs := ss.TotalCosts(w)
	for s := 0; s < ss.S(); s++ {
		var share float64
		for _, j := range fixed {
			share += ss.Frequencies[s][j] * w.Queries[j].Cost / costs[s]
		}
		if share > 1/float64(k)+1e-9 {
			return nil, nil, fmt.Errorf(
				"core: the %d fixed queries carry %.4f of scenario %d, above the node capacity 1/K=%.4f; decrease FixedQueries: %w",
				f, share, s, 1/float64(k), ErrInfeasible)
		}
	}
	return fixed, flex, nil
}

// driver carries the recursion state of the decomposition.
//
// Concurrency model (see DESIGN.md §3.5): sibling chunk subproblems write
// into disjoint leaf ranges of the shared allocation, so those writes need
// no lock; the scalar solve statistics are merged under mu; Logf calls are
// serialized by logMu; and the gate bounds how many subproblem solves run
// at once. Every simplex/MIP solver is constructed and used by exactly one
// goroutine.
type driver struct {
	w     *model.Workload
	ss    *model.ScenarioSet
	opt   Options
	alloc *model.Allocation
	gate  *gate       // bounds concurrent solver work; shared with scratch drivers
	logMu *sync.Mutex // serializes opt.Logf across goroutines

	mu            sync.Mutex // guards the solve statistics below
	maxLoad       float64
	maxGap        float64
	nodes         int
	lpiters       int
	exact         bool
	outcomes      OutcomeCounts
	starts        BasisStarts
	degradedBytes float64
}

func (d *driver) logf(format string, args ...any) {
	if d.opt.Logf == nil {
		return
	}
	d.logMu.Lock()
	defer d.logMu.Unlock()
	d.opt.Logf(format, args...)
}

// recordSolution merges one subproblem's solve statistics; every merge
// operation is commutative, so the aggregate is schedule-independent.
func (d *driver) recordSolution(sol *solution) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nodes += sol.Nodes
	d.lpiters += sol.lpiters
	d.maxGap = math.Max(d.maxGap, sol.Gap)
	d.maxLoad = math.Max(d.maxLoad, sol.L)
	d.exact = d.exact && sol.Exact
	d.outcomes.add(sol.Outcome)
	d.starts.add(sol.starts)
	d.degradedBytes += sol.ExtraBytes
}

// solve recursively processes a subproblem according to spec, assigning the
// final nodes [leaf, leaf+spec.Leaves). id is the subproblem's deterministic
// journal path ("r", "r.0", "r.0.2", …): it depends only on the position in
// the decomposition tree, never on scheduling, so a resumed run looks up
// exactly the records its predecessor wrote. replay permits replaying a
// journaled optimal record: true at the root, and below it only under a
// parent that was replayed too, since a parent solved again may hand its
// children other queries or shares than their records were solved for.
func (d *driver) solve(sp *subproblem, spec *ChunkSpec, leaf int, id string, replay bool) error {
	if len(spec.Children) == 0 && spec.Leaves == 1 {
		// A single final node: it takes the whole inherited subproblem.
		// Nothing is journaled — the assignment is a cheap deterministic
		// projection of the parent's solution, so a resume recomputes it.
		d.assignLeaf(sp, leaf)
		return nil
	}

	sp.split(spec)
	b := len(sp.weights)

	// Resume: a journaled proven-optimal record replays verbatim — no hint
	// pre-solves, no MIP — which both skips the work and (because the
	// record is the solution's own, bit for bit) keeps the final allocation
	// identical to the uninterrupted run. Feasible and degraded records,
	// and optimal ones under a parent solved again, instead become one
	// more warm-start hint for a fresh solve: the re-solve starts no worse
	// than the journaled incumbent and a larger budget may improve it.
	ck := &subCheckpoint{rec: d.opt.Checkpoint, id: id}
	var journalHint [][]bool
	if rec := ck.rec.Sub(ck.id); rec != nil && recordCompatible(rec, b) {
		if replay && rec.Outcome == OutcomeOptimal {
			sol := &solution{SubRecord: *rec}
			d.recordSolution(sol)
			d.logf("core: split %v replayed from checkpoint (optimal, %d nodes)", spec, sol.Nodes)
			return d.finish(sp, spec, sol, leaf, id, true)
		}
		journalHint = sp.hintFromRecord(rec)
	}

	// Pre-solve hints. For exact groups with B >= 3, a hierarchical
	// pre-solve (recursive two-way decomposition of the same subproblem)
	// supplies a high-quality starting placement, guaranteeing the exact
	// solve starts at least as good as its own decomposition (cf. Table 1
	// of the paper, where the exact rows dominate the chunked ones). A flat
	// root solve over the full node set is additionally seeded with the
	// greedy baseline (merged over scenarios), so the LP-based allocation
	// provably starts no worse than greedy. The two hints are independent
	// reads of sp, so they run concurrently with each other.
	var hier, greedyHint [][]bool
	var hintTasks []func() error
	if len(spec.Children) == 0 && b >= 3 {
		hintTasks = append(hintTasks, func() error {
			if d.canceled() {
				return nil // the main solve will degrade; skip the pre-solve
			}
			hier = d.hierarchicalHint(sp, b)
			return nil
		})
	}
	if len(spec.Children) == 0 && leaf == 0 && spec.Leaves == d.alloc.K {
		hintTasks = append(hintTasks, func() error {
			if d.canceled() {
				return nil
			}
			greedyHint = d.greedyHint(sp, b)
			return nil
		})
	}
	if len(hintTasks) > 0 {
		if err := d.gate.run(hintTasks...); err != nil {
			return err
		}
	}
	// An incumbent allocation from a previous run warm-starts every split.
	// It is a cheap projection, not a solve, so it runs inline rather than
	// on the worker pool.
	var warmHint [][]bool
	if d.opt.Warm != nil {
		warmHint = sp.project(d.opt.Warm, spec, leaf)
	}

	d.logf("core: solving split %v (B=%d, %d flexible queries, %d fragments) for leaves %d..%d",
		spec, b, len(sp.flexQ), countTrue(sp.activeFrag), leaf, leaf+spec.Leaves-1)
	d.gate.acquire()
	sol, err := d.solveWithPolicy(sp, spec, ck,
		hint{"hier", hier}, hint{"greedy", greedyHint}, hint{"warm", warmHint}, hint{"journal", journalHint})
	d.gate.release()
	if err != nil {
		return err
	}
	d.recordSolution(sol)
	// Journal the completed solve — degraded outcomes included, routing and
	// all — before any child work starts, so a crash below this point never
	// re-solves this subproblem.
	ck.record(d.logf, sol)
	d.logf("core: split %v solved (%v): L=%.4f gap=%.4f nodes=%d stop=%v first=%s %v", spec, sol.Outcome, sol.L, sol.Gap, sol.Nodes, sol.stop, sol.first, sol.starts)
	return d.finish(sp, spec, sol, leaf, id, false)
}

// finish applies a solved (or replayed) split: exact groups write their
// placement and routing into the final allocation; inner splits derive the
// child subproblems and recurse into the independent siblings concurrently;
// replayed says whether sol came from the journal, which lets the children
// replay theirs.
func (d *driver) finish(sp *subproblem, spec *ChunkSpec, sol *solution, leaf int, id string, replayed bool) error {
	if len(spec.Children) == 0 {
		// Exact group: subnodes are final nodes.
		for bb := 0; bb < len(sp.weights); bb++ {
			d.alloc.Fragments[leaf+bb] = append([]int(nil), sol.Frags[bb]...)
		}
		for _, rt := range sol.Z {
			copy(d.alloc.Shares[rt.S][rt.Q][leaf:], rt.Shares)
		}
		if sp.hasFixed {
			d.assignFixedShares(sp, leaf)
		}
		return nil
	}

	// Inner split: derive one child subproblem per subnode — all of them
	// before any recursion, so the children depend only on this level's
	// solution — and recurse into the independent siblings concurrently.
	// Each child owns the disjoint leaf range [leaves[bb],
	// leaves[bb]+cs.Leaves), so their allocation writes never overlap.
	subs := make([]*subproblem, len(spec.Children))
	leaves := make([]int, len(spec.Children))
	child := leaf
	for bb, cs := range spec.Children {
		subs[bb] = d.childSubproblem(sp, sol, bb)
		leaves[bb] = child
		child += cs.Leaves
	}
	tasks := make([]func() error, len(spec.Children))
	for bb, cs := range spec.Children {
		bb, cs := bb, cs
		tasks[bb] = func() error { return d.solve(subs[bb], cs, leaves[bb], id+"."+strconv.Itoa(bb), replayed) }
	}
	return d.gate.run(tasks...)
}

// project reads the starting placement for spec's split of the final nodes
// [leaf, leaf+spec.Leaves) off an allocation: subnode bb proposes flexible
// query j when some final node in bb's leaf range can run j under alloc —
// one node for an exact group, a child's leaves for an inner split. When
// alloc has fewer nodes (a warm incumbent from before a node join), only
// the overlapping prefix counts; a query alloc cannot run in a subnode's
// range contributes nothing there, which the proposal repair inside the
// MIP tolerates like any other partial start.
func (sp *subproblem) project(alloc *model.Allocation, spec *ChunkSpec, leaf int) [][]bool {
	widths := spec.subnodes()
	hint := make([][]bool, len(sp.flexQ))
	for q, j := range sp.flexQ {
		hint[q] = make([]bool, len(widths))
		lo := leaf
		for bb, width := range widths {
			for n := lo; n < lo+width && n < alloc.K && !hint[q][bb]; n++ {
				hint[q][bb] = alloc.CanRun(&sp.w.Queries[j], n)
			}
			lo += width
		}
	}
	return hint
}

// greedyHint places the flexible queries as the greedy baseline allocation
// (merged over the scenario set) does. The baseline computation counts
// against the driver's worker pool like any other solver task.
func (d *driver) greedyHint(sp *subproblem, n int) [][]bool {
	d.gate.acquire()
	alloc, err := greedy.AllocateScenarios(d.w, d.ss, n)
	d.gate.release()
	if err != nil {
		return nil
	}
	return sp.project(alloc, Flat(n), 0)
}

// hierarchicalHint solves the same subproblem with a balanced two-way
// decomposition into a scratch allocation and returns the resulting
// placement, used as a starting incumbent for the exact solve.
func (d *driver) hierarchicalHint(sp *subproblem, n int) [][]bool {
	half := n / 2
	spec := Split(Flat(half), Flat(n-half))
	// The scratch driver gets its own allocation and statistics but shares
	// the parent's worker pool and log serialization, so pre-solves cannot
	// oversubscribe the CPU budget or interleave log lines. It journals
	// into a fresh in-memory recorder of its own: a pre-solve is throwaway
	// scaffolding whose subproblem ids would collide with the real
	// decomposition's journal. It gets no Warm: it lays this group's
	// subnodes out from leaf 0, where the incumbent's nodes are those of
	// the group that owns leaf 0, not necessarily this one's.
	opt := d.opt
	opt.Checkpoint = checkpoint.NewRecorder(nil, nil)
	opt.Warm = nil
	scratch := &driver{
		w: d.w, ss: d.ss, opt: opt, alloc: newAllocation(d.w, d.ss, d.alloc.K), exact: true,
		gate: d.gate, logMu: d.logMu,
	}
	// The pre-solve may run concurrently with other readers of sp, and
	// driver.solve installs its own weights: give it a clone.
	if err := scratch.solve(sp.clone(), spec, 0, "h", true); err != nil {
		d.logf("core: hierarchical pre-solve failed: %v", err)
		return nil
	}
	return sp.project(scratch.alloc, Flat(n), 0)
}

// assignLeaf routes a leaf subproblem's entire inherited workload to one
// final node.
func (d *driver) assignLeaf(sp *subproblem, leaf int) {
	var frags []int
	for i, a := range sp.activeFrag {
		if a {
			frags = append(frags, i)
		}
	}
	d.alloc.Fragments[leaf] = frags
	for _, rt := range sp.routes {
		d.alloc.Shares[rt.s][rt.j][leaf] = sp.shares[rt.s][rt.j]
	}
	if sp.hasFixed {
		d.assignFixedShares(sp, leaf)
	}
}

// assignFixedShares routes the fixed queries' inherited shares to the given
// final node (always the node descended from subnode 0 chains).
func (d *driver) assignFixedShares(sp *subproblem, leaf int) {
	for _, j := range sp.fixedQ {
		for s := 0; s < d.ss.S(); s++ {
			if sp.shares[s][j] > 0 && d.ss.Frequencies[s][j] > 0 {
				d.alloc.Shares[s][j][leaf] = sp.shares[s][j]
			}
		}
	}
}

// childSubproblem builds the subproblem inherited by subnode bb: the routes
// with a share there, and through them — sol.Z being ascending — the
// ascending list of queries that still carry load.
func (d *driver) childSubproblem(sp *subproblem, sol *solution, bb int) *subproblem {
	shares := make([][]float64, d.ss.S())
	for s := range shares {
		shares[s] = make([]float64, len(d.w.Queries))
	}
	var flex []int
	for _, rt := range sol.Z {
		if rt.Shares[bb] > 1e-9 {
			shares[rt.S][rt.Q] = rt.Shares[bb]
			if len(flex) == 0 || flex[len(flex)-1] != rt.Q {
				flex = append(flex, rt.Q)
			}
		}
	}

	activeFrag := make([]bool, len(d.w.Fragments))
	for _, i := range sol.Frags[bb] {
		activeFrag[i] = true
	}

	sub := &subproblem{
		w: sp.w, ss: sp.ss, costs: sp.costs, k: sp.k, vNorm: sp.vNorm,
		activeFrag: activeFrag, flexQ: flex, shares: shares,
	}
	if bb == 0 && sp.hasFixed {
		sub.hasFixed = true
		sub.fixedQ = sp.fixedQ
		for _, j := range sp.fixedQ {
			for s := range shares {
				shares[s][j] = sp.shares[s][j]
			}
		}
	}
	return sub.index()
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}
