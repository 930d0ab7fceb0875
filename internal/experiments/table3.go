package experiments

import (
	"errors"
	"fmt"
	"time"

	"fragalloc/internal/core"
	"fragalloc/internal/eval"
	"fragalloc/internal/greedy"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

// table3Row is one robustness configuration: S in-sample scenarios with F
// fixed queries for our approach (f < 0 marks a greedy-merge row).
type table3Row struct {
	s int
	f int // -1: greedy merge approach W^G(S)
}

var (
	table3TPCDSQuick = []table3Row{
		{1, 47}, {3, 47}, {5, 47}, {10, 47}, {10, 15},
		{1, -1}, {2, -1}, {3, -1}, {5, -1}, {10, -1},
	}
	table3TPCDSFull = []table3Row{
		{1, 0}, {3, 0}, {5, 0},
		{1, 47}, {3, 47}, {5, 47}, {7, 47}, {10, 15}, {10, 47}, {20, 47}, {50, 47},
		{1, -1}, {2, -1}, {3, -1}, {5, -1}, {10, -1}, {20, -1}, {50, -1},
	}
	table3AcctQuick = []table3Row{
		{1, 4361}, {3, 4361}, {5, 4361}, {10, 4361}, {10, 4411},
		{1, -1}, {3, -1},
	}
	table3AcctFull = []table3Row{
		{1, 4361}, {3, 4361}, {5, 4361}, {10, 4361}, {10, 4411}, {20, 4361}, {50, 4411},
		{1, -1}, {3, -1}, {5, -1}, {10, -1},
	}
	table3TPCDSBench = []table3Row{{1, 47}, {3, 47}, {1, -1}, {3, -1}}
	table3AcctBench  = []table3Row{{1, 4361}, {1, -1}}
)

// table3Chunks is the paper's fixed setting for Table 3: K = 8 = 4+4.
const (
	table3K      = 8
	table3Chunks = "4+4"
)

// Table3 reproduces Table 3: robustness of allocations computed for S seen
// scenarios, verified against S̃ unseen scenarios (Config.OutOfSample).
// Rows with F >= 0 use the paper's partial-clustering approach W(S); rows
// marked merge use the greedy merge baseline W^G(S). A W(S) row whose F
// fixed queries overload node 0 in some seen scenario (core.ErrInfeasible)
// prints as infeasible, with the refusal as its note.
func Table3(cfg Config) error {
	w, err := cfg.load()
	if err != nil {
		return err
	}
	rows := rowSet(cfg, table3TPCDSQuick, table3TPCDSFull, table3TPCDSBench)
	if cfg.Workload == "accounting" {
		rows = rowSet(cfg, table3AcctQuick, table3AcctFull, table3AcctBench)
	}
	return cfg.table3(w, rows)
}

// table3 renders Table 3's rows on w.
func (cfg Config) table3(w *model.Workload, rows []table3Row) error {
	unseen := scenario.OutOfSample(w, cfg.OutOfSample, scenario.DefaultP, cfg.Seed+1000)
	spec, err := core.ParseChunks(table3Chunks)
	if err != nil {
		return err
	}

	err = cfg.table(
		fmt.Sprintf("Table 3 (%s): robustness with S seen scenarios vs %d unseen; K=%d=%s, p=%.2f, budget %v/subproblem",
			w.Name, cfg.OutOfSample, table3K, table3Chunks, scenario.DefaultP, cfg.Budget),
		"approach\tS\tF\tW/V\tsolve time\tE(L~)-1/K\tE((1/K)/L~)\tnote",
		len(rows), func(i int, opts core.Options) (string, error) {
			row := rows[i]
			seen := scenario.InSample(w, row.s, scenario.DefaultP, cfg.Seed)
			var (
				alloc     *model.Allocation
				repl      float64
				solveTime time.Duration
				label     string
				fCol      string
				note      string
			)
			if row.f >= 0 {
				opts.Chunks, opts.FixedQueries = spec, row.f
				res, err := cfg.allocate(fmt.Sprintf("table3-s%d-f%d", row.s, row.f), w, seen, table3K, opts)
				if errors.Is(err, core.ErrInfeasible) {
					return fmt.Sprintf("W(S)\t%d\t%d\tinfeasible\t-\t-\t-\t%v\n", row.s, row.f, err), nil
				}
				if err != nil {
					return "", err
				}
				alloc, repl, solveTime = res.Allocation, res.ReplicationFactor, res.SolveTime
				label, fCol, note = "W(S)", fmt.Sprintf("%d", row.f), gapMark(res)
			} else {
				start := time.Now()
				var err error
				alloc, err = greedy.AllocateScenarios(w, seen, table3K)
				if err != nil {
					return "", fmt.Errorf("table3 merge S=%d: %w", row.s, err)
				}
				solveTime = time.Since(start)
				repl = alloc.TotalData(w) / w.AccessedDataSize(seen.Frequencies...)
				label, fCol = "W^G(S)", "/"
			}

			m, err := eval.Evaluate(w, alloc, unseen)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s\t%d\t%s\t%.3f\t%s\t%.4f\t%.3f\t%s\n",
				label, row.s, fCol, repl, fmtDur(solveTime), m.MeanGap, m.MeanThroughput, note), nil
		}, "")
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
