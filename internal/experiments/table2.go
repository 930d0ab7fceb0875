package experiments

import (
	"fmt"

	"fragalloc/internal/core"
	"fragalloc/internal/greedy"
	"fragalloc/internal/model"
)

// table2Row is one partial-clustering configuration of Table 2.
type table2Row struct {
	k      int
	f      int
	chunks string
}

var (
	table2TPCDSFull = []table2Row{
		{4, 36, "4"}, {5, 47, "5"}, {6, 4, "3+3"}, {8, 15, "4+4"}, {10, 47, "5+5"}, {12, 15, "4+4+4"},
	}
	table2TPCDSQuick = []table2Row{
		{4, 36, "4"}, {6, 4, "3+3"}, {8, 15, "4+4"},
	}
	table2AcctFull = []table2Row{
		{4, 4361, "4"}, {5, 4361, "5"}, {6, 4361, "3+3"}, {8, 4361, "4+4"},
		{10, 4361, "5+5"}, {12, 4361, "6+6"}, {12, 4361, "4+4+4"},
	}
	table2AcctQuick = []table2Row{
		{4, 4361, "4"}, {6, 4361, "3+3"}, {8, 4361, "4+4"},
	}
	table2TPCDSBench = []table2Row{{4, 36, "4"}}
	table2AcctBench  = []table2Row{{4, 4361, "4"}}
)

// Table2 reproduces Table 2: the partial clustering heuristic (F fixed
// queries) against the plain decomposition W^D (same chunks, F = 0) and the
// greedy baseline W^G, for the single fixed workload f_j = 1.
//
// For the accounting workload the clustering rows run at the paper's full
// scale (F = 4361 leaves only 100 flexible queries), but the W^D reference
// — the same decomposition with all Q = 4461 queries flexible — does not
// finish within a table budget, which is precisely the runtime wall the
// paper's Section 3.2 motivates, so the W/W^D column prints n/a there.
func Table2(cfg Config) error {
	cfg = cfg.withDefaults()
	w, err := cfg.load()
	if err != nil {
		return err
	}
	rows := rowSet(cfg, table2TPCDSQuick, table2TPCDSFull, table2TPCDSBench)
	withWD := true
	if cfg.Workload == "accounting" {
		rows = rowSet(cfg, table2AcctQuick, table2AcctFull, table2AcctBench)
		withWD = false
	}
	freq := ones(w)
	ss := model.SingleScenario(freq)

	err = cfg.table(
		fmt.Sprintf("Table 2 (%s): partial clustering W (F fixed queries) vs W^D (F=0) and W^G; N=%d, Q=%d, budget %v/subproblem",
			w.Name, w.NumFragments(), w.NumQueries(), cfg.Budget),
		"K\tF\tchunks\tW/V\tsolve time_W\tW/W^D\tW/W^G\tnote",
		len(rows), func(i int, opts core.Options) (string, error) {
			row := rows[i]
			spec, err := core.ParseChunks(row.chunks)
			if err != nil {
				return "", err
			}
			opts.Chunks = spec
			rowID := fmt.Sprintf("table2-k%d-f%d", row.k, row.f)
			clustered := opts
			clustered.FixedQueries = row.f
			res, err := cfg.allocate(rowID, w, ss, row.k, clustered)
			if err != nil {
				return "", err
			}

			wd := "n/a"
			note := gapMark(res)
			if withWD {
				dres, err := cfg.allocate(rowID+"-wd", w, ss, row.k, opts)
				if err != nil {
					return "", err
				}
				wd = fmt.Sprintf("%+.1f%%", (res.W/dres.W-1)*100)
				if !dres.Exact {
					note += " W^D" + gapMark(dres)
				}
			}

			gAlloc, err := greedy.Allocate(w, freq, row.k)
			if err != nil {
				return "", err
			}
			gw := gAlloc.TotalData(w)

			return fmt.Sprintf("%d\t%d\t%s\t%.3f\t%s\t%s\t%+.1f%%\t%s\n",
				row.k, row.f, row.chunks,
				res.ReplicationFactor, fmtDur(res.SolveTime),
				wd, (res.W/gw-1)*100, note), nil
		}, "")
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
