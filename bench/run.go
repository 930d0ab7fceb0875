package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"fragalloc/internal/service"
)

// Set-up runs several times per workload and setup_s is the median, so one
// slow page-cache miss does not decide it. An allocd workload boots its
// daemon at least minSetUps times and again until setUpBudget has been spent
// or maxSetUps is reached; a table row sets up minSetUps times and then
// setUpsPerOp more times before each operation.
const (
	minSetUps   = 5
	maxSetUps   = 50
	setUpBudget = 3 * time.Second
	setUpsPerOp = 8
)

// report is what one run of one workload measured.
type report struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
	// Samples keeps the per-operation timings behind the headline medians,
	// in operation order, so quartiles and drifts can be read afterwards.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// SelfMs is the traced run's self time per span name: a span's duration
	// minus what its child spans cover. "op" is the benchmark's own glue.
	SelfMs map[string]float64 `json:"self_ms,omitempty"`

	spans []span
}

// runConfig is how one workload run is sized and where it may write.
type runConfig struct {
	seed     int64 // in-sample scenarios and the drift stream: what the solver works on
	evalSeed int64 // out-of-sample scenario sets and the checker's LP sample
	ops      int
	box      time.Duration // table rows: keep operating past ops until this much time has gone; 0 = exactly ops
	traced   bool
	root     string // scratch root for inputs and state directories
	keep     bool   // leave the scratch directories for inspection
}

// fail records a failed operation; only the first few reasons are kept.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runWorkload sets the workload up, runs its operations with every output
// checked, and — in the traced run — probes the layers underneath.
func runWorkload(sp spec, cfg runConfig) (rep *report, err error) {
	rep = &report{Workload: sp.name, Seed: cfg.seed, Traced: cfg.traced, Samples: make(map[string][]float64)}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	if sp.kind == kindFlood {
		// The one workload with two busy threads: at opProcs the ack path
		// would queue behind the solver's time slices (40 ms per
		// acknowledgement instead of 6) and measure the Go scheduler.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs)))
	}

	var in *inputs
	var setups []time.Duration
	cleanup := func(in *inputs) {
		in.close()
		if in != nil && !cfg.keep {
			if rerr := os.RemoveAll(in.dir); rerr != nil && err == nil {
				err = rerr
			}
		}
	}
	timeSetUp := func() (*inputs, error) {
		start := time.Now()
		in, err := setUp(sp, cfg, tr)
		setups = append(setups, time.Since(start))
		return in, err
	}
	var spent time.Duration
	for i := 0; i < minSetUps || (sp.kind != kindBatch && i < maxSetUps && spent < setUpBudget); i++ {
		cleanup(in)
		in, err = timeSetUp()
		spent += setups[i]
		if err != nil {
			cleanup(in)
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
	}
	defer func() { cleanup(in) }()
	// The table rows set up in a millisecond or thirty: fifty set-ups in a
	// row would all see the same 60 ms of the machine, so theirs are spread
	// over the run, a few thrown-away ones before every operation.
	moreSetUps := func() error {
		for i := 0; i < setUpsPerOp; i++ {
			extra, err := timeSetUp()
			cleanup(extra)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		return nil
	}

	layers := &probe{sp: sp, in: in, tr: tr, out: &rep.PerLayer}
	switch sp.kind {
	case kindBatch:
		err = rep.runBatch(sp, in, cfg, tr, layers, moreSetUps)
	case kindDrift:
		err = rep.runDrift(sp, in, tr, layers)
	case kindFlood:
		err = rep.runFlood(sp, in, tr, layers)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	rep.EndToEnd.add("fail_share", float64(rep.Failed)/float64(rep.Attempted), "share", rep.Attempted)
	setupS := durations(setups, time.Second)
	rep.EndToEnd = append(metricSet{{Name: "setup_s", Value: median(setupS), Unit: "s", N: len(setupS)}}, rep.EndToEnd...)
	rep.Samples["setup_s"] = setupS
	if cfg.traced {
		rep.PerLayer.add("proc.peak_rss_mb", peakRSSMB(), "MB", 1)
		rep.spans = tr.snapshot()
		rep.SelfMs = make(map[string]float64)
		for name, d := range selfByName(rep.spans) {
			rep.SelfMs[name] = float64(d) / float64(time.Millisecond)
		}
	}
	return rep, nil
}

func (rep *report) runBatch(sp spec, in *inputs, cfg runConfig, tr *tracer, layers *probe, moreSetUps func() error) error {
	var first *solved
	var solve, evaluate, total, allocate []time.Duration
	for i, start := 0, time.Now(); i < cfg.ops || time.Since(start) < cfg.box; i++ {
		if err := moreSetUps(); err != nil {
			return err
		}
		rep.Attempted++
		var s *solved
		var err error
		op := func() { s, err = batchOp(sp, in, i+1, opProcs, tr) }
		if tr == nil {
			op()
		} else if objects, bytes := mallocsDuring(op); err == nil {
			s.mallocs, s.allocBytes = objects, bytes
		}
		if err == nil {
			if first == nil {
				sample := in.unseen
				if sample == nil {
					sample = s.solveSet
				}
				err = checkAllocation(in.w, s.solveSet, sample, sp.k, s.js, s.res, cfg.evalSeed)
			} else {
				err = checkRepeat(first, s)
			}
		}
		if err != nil {
			rep.fail("op %d: %v", i+1, err)
			continue
		}
		if first == nil {
			first = s
		}
		solve = append(solve, s.solve)
		total = append(total, s.solve+s.evaluate)
		allocate = append(allocate, s.allocate)
		if in.unseen != nil {
			evaluate = append(evaluate, s.evaluate)
		}
	}
	if first == nil {
		return nil // every operation failed; fail_share says so
	}
	rep.Samples["solve_s"] = durations(solve, time.Second)
	rep.EndToEnd.add("op_ms", lowerQuartile(durations(total, time.Millisecond)), "ms", len(total))
	rep.EndToEnd.add("solve_s", median(durations(solve, time.Second)), "s", len(solve))
	if in.unseen != nil {
		rep.Samples["evaluate_s"] = durations(evaluate, time.Second)
		rep.EndToEnd.add("evaluate_s", median(durations(evaluate, time.Second)), "s", len(evaluate))
		rep.EndToEnd.add("robust_gap", first.metrics.MeanGap, "load", in.unseen.S())
	}
	rep.EndToEnd.add("replication_factor", first.res.ReplicationFactor, "W/V", 1)
	if tr == nil {
		return nil
	}
	defer layers.begin()()
	return layers.probeBatch(first, allocate)
}

func (rep *report) runDrift(sp spec, in *inputs, tr *tracer, layers *probe) error {
	d := in.daemon
	boot, _ := d.svc.Incumbent()
	run := runDrift(in, tr)
	rep.Attempted = run.attempted
	for _, f := range run.failures {
		rep.fail("%s", f)
	}
	status, restored, restore := rep.stopAndRestore(d, run.last)
	if len(run.adopt) == 0 {
		return nil
	}
	adoptMs := durations(run.adopt, time.Millisecond)
	rep.Samples["adopt_ms"] = adoptMs
	rep.EndToEnd.add("op_ms", lowerQuartile(adoptMs), "ms", len(adoptMs))
	rep.EndToEnd.add("adopt_p50_ms", median(adoptMs), "ms", len(adoptMs))
	if tailPercentile(len(adoptMs)) >= 90 {
		rep.EndToEnd.add("adopt_p90_ms", percentile(adoptMs, 90), "ms", len(adoptMs))
	}
	rep.EndToEnd.add("replication_factor", mean(run.rf), "W/V", len(run.rf))
	rep.EndToEnd.add("migration_mb", mean(run.migration)/1e6, "MB", len(run.migration))
	if tr == nil || restored == nil {
		return nil
	}

	defer layers.begin()()
	out := layers.out
	solveMs := durations(run.solve, time.Millisecond)
	overhead := make([]float64, len(adoptMs))
	for i := range overhead {
		overhead[i] = adoptMs[i] - solveMs[i]
	}
	out.add("service.solve_ms", median(solveMs), "ms", len(solveMs))
	out.add("service.overhead_ms", median(overhead), "ms", len(overhead))
	readMs := durations(run.reads, time.Millisecond)
	if len(readMs) > 0 {
		out.add("service.read_p50_ms", median(readMs), "ms", len(readMs))
		out.add("service.read_p90_ms", percentile(readMs, 90), "ms", len(readMs))
	}
	rep.daemonCounts(status, run.attempted, run.rejected, 0, restore)
	if err := layers.probeDaemon(restored, boot, run.last, run.desired); err != nil {
		return err
	}
	return layers.probeWarmStart(boot.Allocation)
}

func (rep *report) runFlood(sp spec, in *inputs, tr *tracer, layers *probe) error {
	d := in.daemon
	boot, _ := d.svc.Incumbent()
	run := runFlood(in, tr)
	rep.Attempted = run.attempted
	for _, f := range run.failures {
		rep.fail("%s", f)
	}
	status, restored, restore := rep.stopAndRestore(d, run.last)
	if run.acks == 0 {
		return nil
	}
	perSec := float64(run.acks) / run.ackWall.Seconds()
	rep.EndToEnd.add("op_ms", 1000/perSec, "ms", run.acks)
	rep.EndToEnd.add("ingest_per_s", perSec, "1/s", run.acks)
	rep.EndToEnd.add("replication_factor", run.last.W/run.last.V, "W/V", 1)
	if tr == nil || restored == nil {
		return nil
	}
	defer layers.begin()()
	rep.daemonCounts(status, run.acks, run.attempted-run.acks, run.converge, restore)
	return layers.probeDaemon(restored, boot, run.last, run.desired)
}

// stopAndRestore ends an allocd run: it reads the daemon's final status,
// shuts it down, and boots a second daemon on the state directory it left —
// which must serve the last adopted epoch without solving (nil if not).
func (rep *report) stopAndRestore(d *daemon, last *service.Incumbent) (service.Status, *service.Service, time.Duration) {
	status := d.svc.Status()
	d.stop()
	start := time.Now()
	restored, err := checkRestore(d.cfg, last)
	took := time.Since(start)
	if err != nil {
		rep.fail("%v", err)
	}
	return status, restored, took
}

// daemonCounts reports what the daemon says about itself after a run. The
// bootstrap solve is excluded from attempts.
func (rep *report) daemonCounts(st service.Status, updates, rejected int, converge, restore time.Duration) {
	out := &rep.PerLayer
	attempts := max(1, st.Attempts-1)
	out.add("service.attempts", float64(st.Attempts-1), "count", 1)
	out.add("service.updates_per_solve", float64(updates)/float64(attempts), "count", 1)
	out.add("service.reclusterings", float64(st.Reclusterings), "count", 1)
	out.add("service.rejected", float64(rejected), "count", 1)
	out.add("service.converge_ms", float64(converge)/float64(time.Millisecond), "ms", 1)
	out.add("service.restore_ms", float64(restore)/float64(time.Millisecond), "ms", 1)
}
