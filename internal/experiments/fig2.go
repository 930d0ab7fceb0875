package experiments

import (
	"fmt"

	"fragalloc/internal/core"
	"fragalloc/internal/eval"
	"fragalloc/internal/greedy"
	"fragalloc/internal/scenario"
)

// Fig2 reproduces Figure 2 (TPC-DS, K = 8): (a) the memory-consumption vs
// expected-relative-throughput frontier of partial clustering, the greedy
// merge approach, and full replication over the unseen scenarios; and (b)
// the per-scenario relative throughput of the merge allocation with S = 2
// versus our allocation with S = 10 across every unseen scenario.
func Fig2(cfg Config, perScenario bool) error {
	cfg.Workload = "tpcds" // the paper's Figure 2 is TPC-DS only
	w, err := cfg.load()
	if err != nil {
		return err
	}
	unseen := scenario.OutOfSample(w, cfg.OutOfSample, scenario.DefaultP, cfg.Seed+1000)
	spec, err := core.ParseChunks(table3Chunks)
	if err != nil {
		return err
	}

	type series struct{ ours, merge []int }
	plan := rowSet(cfg,
		series{[]int{1, 5, 10}, []int{1, 2, 3, 5, 10}},
		series{[]int{1, 3, 5, 7, 10, 20, 50}, []int{1, 2, 3, 5, 10, 20, 50}},
		series{[]int{1}, []int{1, 2}})
	oursS, mergeS := plan.ours, plan.merge

	// One indexed pool over both series: ours rows first, merge rows after,
	// rendered in that order whatever the completion order. Each row keeps
	// its evaluation for Figure 2b.
	n := len(oursS) + len(mergeS)
	metrics := make([]*eval.Metrics, n)
	err = cfg.table(
		fmt.Sprintf("Figure 2a (%s): memory vs expected relative throughput over %d unseen scenarios; K=%d=%s",
			w.Name, cfg.OutOfSample, table3K, table3Chunks),
		"approach\tS\tW/V\tE((1/K)/L~)\tnote",
		n, func(i int, opts core.Options) (string, error) {
			if i < len(oursS) {
				s := oursS[i]
				opts.Chunks, opts.FixedQueries = spec, 47
				res, err := cfg.allocate(fmt.Sprintf("fig2-s%d", s), w, scenario.InSample(w, s, scenario.DefaultP, cfg.Seed), table3K, opts)
				if err != nil {
					return "", err
				}
				m, err := eval.Evaluate(w, res.Allocation, unseen)
				if err != nil {
					return "", err
				}
				metrics[i] = m
				return fmt.Sprintf("partial clustering (F=47)\t%d\t%.3f\t%.3f\t%s\n",
					s, res.ReplicationFactor, m.MeanThroughput, gapMark(res)), nil
			}
			s := mergeS[i-len(oursS)]
			seen := scenario.InSample(w, s, scenario.DefaultP, cfg.Seed)
			alloc, err := greedy.AllocateScenarios(w, seen, table3K)
			if err != nil {
				return "", err
			}
			m, err := eval.Evaluate(w, alloc, unseen)
			if err != nil {
				return "", err
			}
			repl := alloc.TotalData(w) / w.AccessedDataSize(seen.Frequencies...)
			metrics[i] = m
			return fmt.Sprintf("greedy merge\t%d\t%.3f\t%.3f\t\n", s, repl, m.MeanThroughput), nil
		},
		// Full replication balances every scenario perfectly at W/V = K.
		fmt.Sprintf("full replication\t/\t%.3f\t%.3f\t\n", float64(table3K), 1.0))
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out)

	if !perScenario {
		return nil
	}
	var mOurs, mMerge *eval.Metrics
	for i, s := range oursS {
		if s == 10 {
			mOurs = metrics[i]
		}
	}
	for i, s := range mergeS {
		if s == 2 {
			mMerge = metrics[len(oursS)+i]
		}
	}
	if mOurs == nil || mMerge == nil {
		return fmt.Errorf("fig2: per-scenario series need the S=10 (ours) and S=2 (merge) rows")
	}
	fmt.Fprintf(cfg.Out, "Figure 2b: per-scenario relative throughput (1/K)/L~ for all %d unseen scenarios\n", cfg.OutOfSample)
	t := newTable(cfg.Out)
	fmt.Fprintln(t, "scenario\tmerge S=2\tours S=10 (F=47)")
	invK := 1.0 / table3K
	for i := range mOurs.L {
		fmt.Fprintf(t, "%d\t%.3f\t%.3f\n", i+1, invK/mMerge.L[i], invK/mOurs.L[i])
	}
	if err := t.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
