package experiments

import (
	"fmt"
	"sort"
)

// Fig1 prints the distribution of the top-50 query workload shares and the
// cumulative curve — the paper's Figure 1 — for the configured workload.
// The workload shares use the workload's native frequencies (the trace for
// accounting, f = 1 for TPC-DS), as in Section 2.3.3.
func Fig1(cfg Config) error {
	w, err := cfg.load()
	if err != nil {
		return err
	}
	shares := w.QueryShares(w.DefaultFrequencies())
	type ranked struct {
		name  string
		share float64
	}
	rows := make([]ranked, len(shares))
	for j, s := range shares {
		rows[j] = ranked{w.Queries[j].Name, s}
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].share > rows[b].share })

	fmt.Fprintf(cfg.Out, "Figure 1 (%s): top-50 query workload shares f_j*c_j (of Q=%d)\n",
		w.Name, len(w.Queries))
	t := newTable(cfg.Out)
	fmt.Fprintln(t, "rank\tquery\tshare\tcumulative")
	var cum float64
	top := 50
	if top > len(rows) {
		top = len(rows)
	}
	for r := 0; r < top; r++ {
		cum += rows[r].share
		fmt.Fprintf(t, "%d\t%s\t%.4f\t%.4f\n", r+1, rows[r].name, rows[r].share, cum)
	}
	if err := t.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "top-%d queries carry %.2f%% of the workload (paper: >97%% TPC-DS, >92%% accounting)\n\n",
		top, cum*100)
	return nil
}
