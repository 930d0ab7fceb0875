package experiments

import (
	"fmt"
	"time"

	"fragalloc/internal/core"
	"fragalloc/internal/greedy"
	"fragalloc/internal/model"
)

// table1Row is one (K, chunk spec) configuration of Table 1. Specs without
// '+' are single exact solves (the rows marked * in the paper).
type table1Row struct {
	k      int
	chunks string
}

var (
	table1TPCDSFull = []table1Row{
		{2, "2"}, {3, "3"}, {4, "4"}, {5, "5"}, {6, "6"},
		{4, "2+2"}, {5, "3+2"}, {6, "3+3"}, {8, "4+4"}, {10, "5+5"}, {12, "6+6"},
	}
	table1TPCDSQuick = []table1Row{
		{2, "2"}, {3, "3"}, {4, "4"},
		{4, "2+2"}, {6, "3+3"}, {8, "4+4"},
	}
	table1AcctFull = []table1Row{
		{2, "2"}, {3, "3"}, {4, "4"}, {5, "5"},
		{3, "2+1"}, {4, "2+2"}, {5, "2+2+1"}, {6, "3+3"}, {8, "3+3+2"}, {10, "4+3+3"}, {12, "4+4+4"},
	}
	table1AcctQuick = []table1Row{
		{2, "2"}, {3, "3"},
		{3, "2+1"}, {4, "2+2"}, {6, "3+3"}, {8, "3+3+2"},
	}
	table1TPCDSBench = []table1Row{{2, "2"}, {4, "2+2"}}
	table1AcctBench  = []table1Row{{2, "2"}, {3, "2+1"}}
)

// Table1 reproduces Table 1: the LP decomposition approach W^D (including
// the exact solves) versus the greedy baseline W^G, for a single fixed
// workload with f_j = 1. For the accounting workload the LP-based rows run
// on the heaviest-MaxQ truncation (see Config.MaxQ); greedy runs on the
// same truncation so the W^G/W^D ratios compare like with like.
func Table1(cfg Config) error {
	cfg = cfg.withDefaults()
	w, err := cfg.load()
	if err != nil {
		return err
	}
	rows := rowSet(cfg, table1TPCDSQuick, table1TPCDSFull, table1TPCDSBench)
	if cfg.Workload == "accounting" {
		w = truncate(w, cfg.MaxQ)
		rows = rowSet(cfg, table1AcctQuick, table1AcctFull, table1AcctBench)
	}
	freq := ones(w)
	ss := model.SingleScenario(freq)

	err = cfg.table(
		fmt.Sprintf("Table 1 (%s): decomposition W^D vs greedy W^G; N=%d, Q=%d, f_j=1, budget %v/subproblem",
			w.Name, w.NumFragments(), w.NumQueries(), cfg.Budget),
		"K\tchunks\tW^D/V\tsolve time_W^D\tW^G/W^D\tsolve time_W^G\tnote",
		len(rows), func(i int, opts core.Options) (string, error) {
			row := rows[i]
			spec, err := core.ParseChunks(row.chunks)
			if err != nil {
				return "", err
			}
			opts.Chunks = spec
			res, err := cfg.allocate(fmt.Sprintf("table1-k%d-%s", row.k, row.chunks), w, ss, row.k, opts)
			if err != nil {
				return "", err
			}

			gStart := time.Now()
			gAlloc, err := greedy.Allocate(w, freq, row.k)
			if err != nil {
				return "", err
			}
			gTime := time.Since(gStart)
			gw := gAlloc.TotalData(w)

			star := ""
			if len(spec.Children) == 0 {
				star = "*" // no decomposition: the (budgeted) exact solve
			}
			return fmt.Sprintf("%d\t%s%s\t%.3f\t%s\t%+.0f%%\t%s\t%s\n",
				row.k, row.chunks, star,
				res.ReplicationFactor, fmtDur(res.SolveTime),
				(gw/res.W-1)*100, fmtDur(gTime), gapMark(res)), nil
		}, "")
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
