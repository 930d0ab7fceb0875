package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/core"
	"fragalloc/internal/eval"
	"fragalloc/internal/greedy"
	"fragalloc/internal/hungarian"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
	"fragalloc/internal/service"
	"fragalloc/internal/simplex"
)

// Per-layer probes of the traced run. Each calls a layer's exported
// functions on the workload's own inputs, from outside, wrapped in a span
// under the "layers" root; a layer the workload never reaches is not probed
// and reports nothing.

// probe carries what the probes share.
type probe struct {
	sp    spec
	in    *inputs
	tr    *tracer
	root  int
	out   *metricSet
	spans []span // what set-up and the operations recorded, for spanMedian
}

// begin opens the "layers" root span every probe hangs under and returns the
// function that closes it.
func (p *probe) begin() func() {
	p.spans = p.tr.snapshot()
	p.root = p.tr.begin(0, "layers", -1)
	return func() { p.tr.end(p.root) }
}

// timeN runs fn n times under one span name and returns the per-call
// durations.
func (p *probe) timeN(name string, n int, fn func()) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = p.tr.call(0, name, p.root, fn)
	}
	return ds
}

func (p *probe) addMedian(name string, ds []time.Duration, unit time.Duration, unitName string) {
	p.out.add(name, median(durations(ds, unit)), unitName, len(ds))
}

// mallocsDuring counts heap objects and bytes allocated while fn runs. It
// stops the world twice, so it is only ever used in the traced run. The
// counters are the process's: the runtime allocating meanwhile adds a few
// objects, so a count repeats to within a handful, not exactly.
func mallocsDuring(fn func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// spanMedian reports the median duration of the recorded spans of one name.
func (p *probe) spanMedian(metricName, spanName string, unit time.Duration, unitName string) {
	var ds []time.Duration
	for _, s := range p.spans {
		if s.Name == spanName {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	if len(ds) > 0 {
		p.addMedian(metricName, ds, unit, unitName)
	}
}

// probeBatch measures the layers under a solve workload, given its first
// checked operation.
func (p *probe) probeBatch(first *solved, allocate []time.Duration) error {
	w, k := p.in.w, p.sp.k
	p.spanMedian(p.sp.generator+".generate_ms", p.sp.generator+".generate", time.Millisecond, "ms")
	p.spanMedian("scenario.sample_ms", "scenario.sample", time.Millisecond, "ms")
	p.spanMedian("model.decode_ms", "model.decode", time.Millisecond, "ms")
	p.spanMedian("model.encode_ms", "model.encode", time.Millisecond, "ms")
	p.spanMedian("core.allocate_ms", "core.allocate", time.Millisecond, "ms")
	p.probeScenarioEncode(p.in.observed)
	if first.red != nil {
		p.spanMedian("scenario.reduce_ms", "scenario.reduce", time.Millisecond, "ms")
		p.out.add("scenario.max_radius", first.red.MaxRadius(), "load", 1)
		if err := p.probeAbsorb(p.in.observed, p.in.unseen.Frequencies); err != nil {
			return err
		}
	}

	// greedy: the paper's comparator and the source of the hint pre-solves.
	var g, gm *model.Allocation
	var err error
	ds := p.timeN("greedy.allocate", 5, func() { g, err = greedy.Allocate(w, first.solveSet.Frequencies[0], k) })
	if err != nil {
		return fmt.Errorf("greedy.Allocate: %w", err)
	}
	p.addMedian("greedy.allocate_ms", ds, time.Millisecond, "ms")
	ds = p.timeN("greedy.merge", 3, func() { gm, err = greedy.AllocateScenarios(w, first.solveSet, k) })
	if err != nil {
		return fmt.Errorf("greedy.AllocateScenarios: %w", err)
	}
	p.addMedian("greedy.merge_ms", ds, time.Millisecond, "ms")
	p.out.add("greedy.overhead_ratio", gm.TotalData(w)/first.res.W, "ratio", 1)
	if err := p.probeHungarian(g, first.res.Allocation); err != nil {
		return err
	}

	// mip, observed through core.Result.
	res := first.res
	allocMed := median(durations(allocate, time.Second))
	p.out.add("mip.nodes", float64(res.BBNodes), "count", 1)
	p.out.add("mip.lpiters", float64(res.LPIters), "count", 1)
	p.out.add("mip.lpiters_per_node", float64(res.LPIters)/float64(max(1, res.BBNodes)), "count", 1)
	p.out.add("mip.us_per_lpiter", allocMed*1e6/float64(max(1, res.LPIters)), "us", len(allocate))
	p.out.add("mip.nodes_per_s", float64(res.BBNodes)/allocMed, "1/s", len(allocate))

	// core.
	p.out.add("core.max_gap", res.MaxGap, "W/V", 1)
	p.out.add("core.exact", boolValue(res.Exact), "bool", 1)
	p.out.add("core.outcomes_degraded", float64(res.Outcomes.Degraded), "count", 1)
	if err := p.probeRootLP(first.solveSet, k, p.sp.generator == "tpcds"); err != nil {
		return err
	}
	// One more operation on the parallel driver: the serial median against
	// its wall is par_speedup, and its allocation must be bit-identical.
	var par *solved
	withMaxProcs(func() { par, err = batchOp(p.sp, p.in, 0, maxProcs, nil) })
	if err != nil {
		return fmt.Errorf("parallel solve: %w", err)
	}
	if err := checkRepeat(first, par); err != nil {
		return fmt.Errorf("parallel solve (determinism across Parallelism): %w", err)
	}
	p.out.add("core.par_speedup", allocMed/par.allocate.Seconds(), "ratio", 1)
	p.out.add("core.mallocs_per_solve", float64(first.mallocs), "count", 1)
	p.out.add("core.alloc_mb_per_solve", float64(first.allocBytes)/1e6, "MB", 1)

	if p.in.unseen != nil {
		return p.probeEval(first.res.Allocation)
	}
	return nil
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// probeScenarioEncode times model.WriteJSON of a full scenario set — the
// document the daemon's state journal is mostly made of.
func (p *probe) probeScenarioEncode(ss *model.ScenarioSet) {
	ds := p.timeN("model.scenarios_encode", 5, func() {
		_ = model.WriteJSON(io.Discard, ss) // io.Discard cannot fail and the set was encoded once in set-up
	})
	p.addMedian("model.scenarios_encode_ms", ds, time.Millisecond, "ms")
}

// probeAbsorb times Reduction.Absorb, the daemon's fold path, per vector.
func (p *probe) probeAbsorb(ss *model.ScenarioSet, vectors [][]float64) error {
	red, err := scenario.Reduce(p.in.w, ss, scenario.ReduceConfig{R: p.sp.reduceTo, Seed: 1})
	if err != nil {
		return fmt.Errorf("scenario.Reduce: %w", err)
	}
	vectors = vectors[:min(len(vectors), 200)]
	d := p.tr.call(0, "scenario.absorb", p.root, func() {
		for _, v := range vectors {
			red.Absorb(v, 1)
		}
	})
	p.out.add("scenario.absorb_us", float64(d.Microseconds())/float64(len(vectors)), "us", len(vectors))
	return nil
}

// copyCost is the K×K matrix the merge and the migration diff both hand to
// the Hungarian method: the bytes new node r copies when it takes over old
// node c's data.
func copyCost(w *model.Workload, old, next *model.Allocation) [][]float64 {
	cost := make([][]float64, next.K)
	for r := range cost {
		cost[r] = make([]float64, old.K)
		for c := range cost[r] {
			for _, i := range next.Fragments[r] {
				if !old.HasFragment(c, i) {
					cost[r][c] += w.Fragments[i].Size
				}
			}
		}
	}
	return cost
}

func (p *probe) probeHungarian(old, next *model.Allocation) error {
	cost := copyCost(p.in.w, old, next)
	const reps = 200
	var err error
	d := p.tr.call(0, "hungarian.solve", p.root, func() {
		for i := 0; i < reps && err == nil; i++ {
			_, _, err = hungarian.Solve(cost)
		}
	})
	if err != nil {
		return fmt.Errorf("hungarian.Solve: %w", err)
	}
	p.out.add("hungarian.solve_us", float64(d.Nanoseconds())/1e3/reps, "us", reps)
	return nil
}

// probeRootLP builds the workload's root LP and, where asked, runs the
// simplex probes on it: lp_small on tpcds_exact_k4 (S=1), lp_wide on
// tpcds_robust_r5 (the reduced set), both at K=4.
func (p *probe) probeRootLP(ss *model.ScenarioSet, k int, withSimplex bool) error {
	var lp *simplex.Problem
	var err error
	ds := p.timeN("core.build_root", 3, func() { lp, _, err = core.BuildRootLP(p.in.w, ss, k) })
	if err != nil {
		return fmt.Errorf("core.BuildRootLP: %w", err)
	}
	p.addMedian("core.build_root_ms", ds, time.Millisecond, "ms")
	nnz := 0
	for _, r := range lp.Rows {
		nnz += len(r.Idx)
	}
	p.out.add("core.root_rows", float64(len(lp.Rows)), "count", 1)
	p.out.add("core.root_cols", float64(lp.NumVars), "count", 1)
	p.out.add("core.root_nnz", float64(nnz), "count", 1)
	if !withSimplex {
		return nil
	}
	if k != 4 {
		if lp, _, err = core.BuildRootLP(p.in.w, ss, 4); err != nil {
			return fmt.Errorf("core.BuildRootLP: %w", err)
		}
	}
	return p.probeSimplex(lp)
}

// probeSimplex measures a cold two-phase primal solve and, from its optimal
// basis, warm dual re-solves after fixing one fractional column at a time —
// the two ways branch and bound uses the solver.
func (p *probe) probeSimplex(lp *simplex.Problem) error {
	var s *simplex.Solver
	var r *simplex.Result
	var err error
	var objects uint64
	cold := p.timeN("simplex.root_cold", 3, func() {
		objects, _ = mallocsDuring(func() {
			if s, err = simplex.NewSolver(lp, simplex.Options{}); err == nil {
				r = s.Solve()
			}
		})
	})
	if err != nil {
		return fmt.Errorf("simplex.NewSolver: %w", err)
	}
	if r.Status != simplex.StatusOptimal {
		return fmt.Errorf("simplex: root LP ended %v", r.Status)
	}
	coldMs := median(durations(cold, time.Millisecond))
	p.out.add("simplex.root_cold_ms", coldMs, "ms", len(cold))
	p.out.add("simplex.root_iters", float64(r.Iters), "count", 1)
	p.out.add("simplex.us_per_iter", coldMs*1e3/float64(max(1, r.Iters)), "us", len(cold))
	p.out.add("simplex.root_mallocs", float64(objects), "count", 1)

	var cols []int
	for j, x := range r.X {
		if f := x - math.Floor(x); f > 1e-6 && f < 1-1e-6 {
			if lb, ub := s.Bounds(j); lb == 0 && ub == 1 {
				cols = append(cols, j)
			}
		}
		if len(cols) == 50 {
			break
		}
	}
	if len(cols) == 0 {
		return nil
	}
	var warm []time.Duration
	iters := 0
	for _, j := range cols {
		s.SetBound(j, 0, 0)
		var wr *simplex.Result
		warm = append(warm, p.tr.call(0, "simplex.warm_resolve", p.root, func() { wr = s.ReSolveDual() }))
		iters += wr.Iters
		s.SetBound(j, 0, 1)
		s.ReSolveDual()
	}
	p.addMedian("simplex.warm_resolve_us", warm, time.Microsecond, "us")
	p.out.add("simplex.warm_iters", float64(iters), "count", len(cols))
	return nil
}

// probeEval measures the evaluator the two ways the workloads use it: the
// build (dominant on a big graph with few scenarios) and the per-scenario
// search (dominant on a small graph with many).
func (p *probe) probeEval(a *model.Allocation) error {
	w, unseen := p.in.w, p.in.unseen
	var err error
	var ev *eval.Evaluator
	ds := p.timeN("eval.build", 5, func() { ev = eval.NewEvaluator(w, a, 0) })
	p.addMedian("eval.build_ms", ds, time.Millisecond, "ms")

	freqs := unseen.Frequencies[:min(unseen.S(), 2000)]
	d := p.tr.call(0, "eval.worstload", p.root, func() {
		for _, f := range freqs {
			if _, werr := ev.WorstLoad(f); werr != nil {
				err = werr
			}
		}
	})
	if err != nil {
		return fmt.Errorf("eval.WorstLoad: %w", err)
	}
	p.out.add("eval.worstload_us", float64(d.Nanoseconds())/1e3/float64(len(freqs)), "us", len(freqs))

	stream := func(par int) func() {
		return func() {
			if _, serr := eval.EvaluateStream(w, a, unseen, eval.StreamOptions{Parallelism: par}); serr != nil {
				err = serr
			}
		}
	}
	p1 := p.timeN("eval.stream_p1", 3, stream(1))
	var p2 []time.Duration
	withMaxProcs(func() { p2 = p.timeN("eval.stream_p2", 3, stream(maxProcs)) })
	objects, _ := mallocsDuring(stream(1))
	if err != nil {
		return fmt.Errorf("eval.EvaluateStream: %w", err)
	}
	s1 := median(durations(p1, time.Second))
	p.out.add("eval.scen_per_s", float64(unseen.S())/s1, "1/s", len(p1))
	p.out.add("eval.par_speedup", s1/median(durations(p2, time.Second)), "ratio", len(p1))
	p.out.add("eval.mallocs_per_scen", float64(objects)/float64(unseen.S()), "count", 1)
	return nil
}

// probeDaemon measures the layers under an allocd workload after its run:
// the journal at the workload's own payload size, direct Apply on the
// restored daemon, the diff, and the scenario fold path.
func (p *probe) probeDaemon(restored *service.Service, boot, last *service.Incumbent, desired *model.ScenarioSet) error {
	w := p.in.w
	p.spanMedian("tpcds.generate_ms", "tpcds.generate", time.Millisecond, "ms")
	p.spanMedian("scenario.sample_ms", "scenario.sample", time.Millisecond, "ms")
	p.probeScenarioEncode(desired)
	extra := scenario.OutOfSample(w, 200, scenario.DefaultP, 7)
	if err := p.probeAbsorb(p.in.observed, extra.Frequencies); err != nil {
		return err
	}
	var red *scenario.Reduction
	var err error
	ds := p.timeN("scenario.reduce", 3, func() {
		red, err = scenario.Reduce(w, desired, scenario.ReduceConfig{R: p.sp.reduceTo, Seed: 1})
	})
	if err != nil {
		return fmt.Errorf("scenario.Reduce: %w", err)
	}
	p.addMedian("scenario.reduce_ms", ds, time.Millisecond, "ms")
	p.out.add("scenario.max_radius", red.MaxRadius(), "load", 1)

	// checkpoint, at the size of the journal generation the run ended on.
	st, err := checkpoint.Open(filepath.Join(p.in.daemon.cfg.StateDir, "state"))
	if err != nil {
		return err
	}
	payload, err := st.LoadRaw()
	if err != nil || payload == nil {
		return fmt.Errorf("checkpoint: no state payload to replay (%v)", err)
	}
	scratch, err := checkpoint.Open(filepath.Join(p.in.dir, "journal-probe"))
	if err != nil {
		return err
	}
	saves := p.timeN("checkpoint.save_raw", 40, func() {
		if serr := scratch.SaveRaw(payload); serr != nil {
			err = serr
		}
	})
	if err != nil {
		return fmt.Errorf("checkpoint.SaveRaw: %w", err)
	}
	p.addMedian("checkpoint.save_raw_ms", saves, time.Millisecond, "ms")
	p.out.add("checkpoint.save_raw_p90_ms", percentile(durations(saves, time.Millisecond), 90), "ms", len(saves))
	p.out.add("checkpoint.save_bytes", float64(len(payload)), "B", 1)
	loads := p.timeN("checkpoint.load_raw", 20, func() {
		if _, lerr := scratch.LoadRaw(); lerr != nil {
			err = lerr
		}
	})
	if err != nil {
		return fmt.Errorf("checkpoint.LoadRaw: %w", err)
	}
	p.addMedian("checkpoint.load_raw_ms", loads, time.Millisecond, "ms")

	// service.Apply called directly on the restored daemon, whose loop is
	// not running: validate, clone, absorb, marshal, journal — no solve.
	fresh := service.GenerateDrift(w, desired, service.DriftConfig{Updates: 60, Seed: 11, ObserveProb: p.sp.observeProb})
	var applies []time.Duration
	for _, u := range fresh {
		applies = append(applies, p.tr.call(0, "service.apply", p.root, func() { _, err = restored.Apply(u) }))
		if err != nil {
			return fmt.Errorf("service.Apply: %w", err)
		}
	}
	p.addMedian("service.apply_ms", applies, time.Millisecond, "ms")
	p.out.add("service.apply_p90_ms", percentile(durations(applies, time.Millisecond), 90), "ms", len(applies))

	ds = p.timeN("service.diff", 50, func() { _, err = service.ComputeDiff(w, boot.Allocation, last.Allocation, boot.Epoch, last.Epoch) })
	if err != nil {
		return fmt.Errorf("service.ComputeDiff: %w", err)
	}
	p.addMedian("service.diff_ms", ds, time.Millisecond, "ms")
	return p.probeHungarian(boot.Allocation, last.Allocation)
}

// probeWarmStart measures what Options.Warm buys on the drift workload's
// own problem: LP iterations with the previous epoch's allocation as the
// starting placement, against the same solves started cold, on five epochs
// spread over the drift stream.
func (p *probe) probeWarmStart(boot *model.Allocation) error {
	const epochs = 5
	d := p.in.daemon
	chunks, err := p.sp.chunkSpec()
	if err != nil {
		return err
	}
	desired := p.in.observed.Clone()
	step := max(1, len(d.updates)/epochs)
	prev := boot
	warmIters, coldIters, pairs := 0, 0, 0
	for i, u := range d.updates {
		mirror(desired, u)
		if (i+1)%step != 0 {
			continue
		}
		red, err := scenario.Reduce(p.in.w, desired, scenario.ReduceConfig{R: p.sp.reduceTo, Seed: 1})
		if err != nil {
			return err
		}
		solve := func(warm *model.Allocation) (*core.Result, error) {
			var res *core.Result
			var err error
			p.tr.call(0, "core.allocate_warmprobe", p.root, func() {
				res, err = core.Allocate(p.in.w, red.Reduced, p.sp.k, core.Options{
					Chunks: chunks, FixedQueries: p.sp.fixed, Parallelism: 1, MIP: p.sp.mip, Warm: warm,
				})
			})
			return res, err
		}
		cold, err := solve(nil)
		if err != nil {
			return err
		}
		warm, err := solve(prev)
		if err != nil {
			return err
		}
		warmIters += warm.LPIters
		coldIters += cold.LPIters
		pairs++
		prev = cold.Allocation
	}
	if coldIters > 0 {
		p.out.add("core.warm_lpiters_ratio", float64(warmIters)/float64(coldIters), "ratio", pairs)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
