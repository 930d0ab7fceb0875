package main

import (
	"fmt"
	"io"
)

// bound says how much an end-to-end metric may worsen between two sets of
// runs before the change counts as a regression.
type bound struct {
	name     string
	unit     string
	higher   bool    // higher is better
	relative float64 // share of the baseline it may worsen by ...
	absolute float64 // ... or an absolute amount, for metrics that sit near zero
}

// bounds lists every end-to-end metric in reporting order. BENCHMARK.json
// carries op_ms, setup_s and replication_factor — the three every workload
// defines, as the driver's contract requires — with the same bounds. setup_s
// and op_ms have the largest bound the contract allows. setup_s is
// milliseconds of file writes on the table rows; op_ms is what the driver
// gates across runs on a shared box, where neighbours slow identical work by
// a quarter for minutes at a time.
var bounds = []bound{
	{name: "setup_s", unit: "s", relative: 0.25},
	{name: "op_ms", unit: "ms", relative: 0.25},
	{name: "solve_s", unit: "s", relative: 0.10},
	{name: "evaluate_s", unit: "s", relative: 0.10},
	{name: "replication_factor", unit: "W/V", relative: 0.01},
	{name: "robust_gap", unit: "load", absolute: 0.002},
	{name: "adopt_p50_ms", unit: "ms", relative: 0.10},
	{name: "adopt_p90_ms", unit: "ms", relative: 0.15},
	{name: "migration_mb", unit: "MB", relative: 0.10},
	{name: "ingest_per_s", unit: "1/s", higher: true, relative: 0.10},
	{name: "fail_share", unit: "share"},
}

// worsening returns how far candidate is on the wrong side of base, in the
// metric's own unit (≤ 0 when it did not get worse), and the allowance.
func (b bound) worsening(base, candidate float64) (worse, allowed float64) {
	worse = candidate - base
	if b.higher {
		worse = base - candidate
	}
	allowed = b.absolute
	if b.relative > 0 {
		allowed = b.relative * base
	}
	return worse, allowed
}

func (b bound) breached(base, candidate float64) bool {
	worse, allowed := b.worsening(base, candidate)
	return worse > allowed
}

// compareResults prints one row per (workload, metric) present in both sets
// and reports whether any bound was breached. A workload or metric missing
// from the candidate is a breach: a number that vanished did not hold.
func compareResults(out io.Writer, base, candidate *results) (breaches int) {
	fmt.Fprintf(out, "%-22s %-20s %14s %14s %10s %10s\n", "workload", "metric", "base", "candidate", "worse by", "allowed")
	for _, rb := range base.Workloads {
		rc := candidate.workload(rb.Workload)
		for _, b := range bounds {
			mb, ok := rb.EndToEnd.get(b.name)
			if !ok {
				continue
			}
			var mc metric
			if rc != nil {
				mc, ok = rc.EndToEnd.get(b.name)
			}
			if rc == nil || !ok {
				fmt.Fprintf(out, "%-22s %-20s %14s %14s  BREACH (missing)\n", rb.Workload, b.name, formatValue(mb.Value), "-")
				breaches++
				continue
			}
			worse, allowed := b.worsening(mb.Value, mc.Value)
			verdict := ""
			if b.breached(mb.Value, mc.Value) {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-22s %-20s %14s %14s %10.4g %10.4g%s\n",
				rb.Workload, b.name, formatValue(mb.Value), formatValue(mc.Value), worse, allowed, verdict)
		}
	}
	return breaches
}

// driverEndToEnd names the end-to-end metrics BENCHMARK.json lists: the ones
// every workload defines, because its driver wants each metric from each
// workload. op_ms is the workload's headline latency — solve plus evaluation
// for the table rows and update-to-adoption for allocd_drift, both as the
// lower quartile over the run's operations, and wall time per acknowledged
// update for allocd_flood.
var driverEndToEnd = []string{"op_ms", "setup_s", "replication_factor"}

// perLayer lists every per-layer metric of the traced run with its unit, in
// the order BENCHMARK.json carries them. The prefix is the layer's package.
var perLayer = []struct{ name, unit string }{
	{"tpcds.generate_ms", "ms"},
	{"accounting.generate_ms", "ms"},
	{"model.decode_ms", "ms"},
	{"model.encode_ms", "ms"},
	{"model.scenarios_encode_ms", "ms"},
	{"scenario.sample_ms", "ms"},
	{"scenario.reduce_ms", "ms"},
	{"scenario.max_radius", "load"},
	{"scenario.absorb_us", "us"},
	{"greedy.allocate_ms", "ms"},
	{"greedy.merge_ms", "ms"},
	{"greedy.overhead_ratio", "ratio"},
	{"hungarian.solve_us", "us"},
	{"eval.build_ms", "ms"},
	{"eval.worstload_us", "us"},
	{"eval.scen_per_s", "1/s"},
	{"eval.par_speedup", "ratio"},
	{"eval.mallocs_per_scen", "count"},
	{"simplex.root_cold_ms", "ms"},
	{"simplex.root_iters", "count"},
	{"simplex.us_per_iter", "us"},
	{"simplex.root_mallocs", "count"},
	{"simplex.warm_resolve_us", "us"},
	{"simplex.warm_iters", "count"},
	{"mip.nodes", "count"},
	{"mip.lpiters", "count"},
	{"mip.lpiters_per_node", "count"},
	{"mip.us_per_lpiter", "us"},
	{"mip.nodes_per_s", "1/s"},
	{"core.allocate_ms", "ms"},
	{"core.build_root_ms", "ms"},
	{"core.root_rows", "count"},
	{"core.root_cols", "count"},
	{"core.root_nnz", "count"},
	{"core.mallocs_per_solve", "count"},
	{"core.alloc_mb_per_solve", "MB"},
	{"core.max_gap", "W/V"},
	{"core.exact", "bool"},
	{"core.outcomes_degraded", "count"},
	{"core.par_speedup", "ratio"},
	{"core.warm_lpiters_ratio", "ratio"},
	{"checkpoint.save_raw_ms", "ms"},
	{"checkpoint.save_raw_p90_ms", "ms"},
	{"checkpoint.save_bytes", "B"},
	{"checkpoint.load_raw_ms", "ms"},
	{"service.apply_ms", "ms"},
	{"service.apply_p90_ms", "ms"},
	{"service.solve_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.diff_ms", "ms"},
	{"service.read_p50_ms", "ms"},
	{"service.read_p90_ms", "ms"},
	{"service.updates_per_solve", "count"},
	{"service.attempts", "count"},
	{"service.reclusterings", "count"},
	{"service.converge_ms", "ms"},
	{"service.restore_ms", "ms"},
	{"service.rejected", "count"},
	{"proc.peak_rss_mb", "MB"},
}
