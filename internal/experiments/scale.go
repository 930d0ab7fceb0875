package experiments

import (
	"fmt"
	"time"

	"fragalloc/internal/core"
	"fragalloc/internal/eval"
	"fragalloc/internal/scenario"
)

// scaleR is the representative budget of the scale study: whatever |S| grows
// to, the solver only ever sees this many weighted scenarios.
const scaleR = 8

// Scale is the scenario scale-out study (DESIGN.md §3.12): it grows the
// in-sample set |S| a hundredfold, clusters it down to a fixed R = 8 weighted
// representatives, solves the paper's Table 3 configuration (TPC-DS, K = 8 =
// 4+4, F = 47) over the representatives only, and then evaluates the
// resulting allocation against every member scenario with the streaming
// evaluator. The headline is the E(L~)-1/K column staying flat — and within
// the clustering's certified deviation bound of the full-S solve wherever the
// full solve is still tractable — while the solve never grows past R
// scenarios and the full-set evaluation stays cheap.
func Scale(cfg Config) error {
	cfg = cfg.withDefaults()
	cfg.Workload = "tpcds" // the scale study pins the Table 3 configuration
	w, err := cfg.load()
	if err != nil {
		return err
	}
	spec, err := core.ParseChunks(table3Chunks)
	if err != nil {
		return err
	}

	// sizes are the in-sample |S| values, r the representative budget, and
	// fullUpTo the largest |S| whose full-S reference solve is still tractable.
	type scalePlan struct {
		sizes       []int
		r, fullUpTo int
	}
	paper := scalePlan{[]int{4, 40, 400}, scaleR, 40}
	plan := rowSet(cfg, paper, paper, scalePlan{[]int{4, 8}, 2, 4})
	sizes, r, fullUpTo := plan.sizes, plan.r, plan.fullUpTo

	// Row plan: one reduced row per size, plus a full-S reference row for
	// the sizes where solving over every scenario is still affordable.
	type row struct {
		s       int
		reduced bool
	}
	var rows []row
	for _, s := range sizes {
		rows = append(rows, row{s: s, reduced: true})
		if s <= fullUpTo {
			rows = append(rows, row{s: s, reduced: false})
		}
	}

	n := len(rows)
	gaps := make([]float64, n)
	bounds := make([]float64, n)
	err = cfg.table(
		fmt.Sprintf("Scenario scale-out (%s): solve over R=%d clustered representatives vs the full set; K=%d=%s, F=47, p=%.2f, budget %v",
			w.Name, r, table3K, table3Chunks, scenario.DefaultP, cfg.Budget),
		"S\tsolve set\tbound\tW/V\tE(L~)-1/K\tE((1/K)/L~)\tsolve\teval\tnote",
		n, func(i int, opts core.Options) (string, error) {
			rw := rows[i]
			seen := scenario.InSample(w, rw.s, scenario.DefaultP, cfg.Seed)
			solveSet := seen
			setLabel := fmt.Sprintf("full S=%d", rw.s)
			ckptID := fmt.Sprintf("scale-s%d-full", rw.s)
			if rw.reduced {
				red, err := scenario.Reduce(w, seen, scenario.ReduceConfig{R: min(r, rw.s), Seed: cfg.Seed})
				if err != nil {
					return "", fmt.Errorf("scale S=%d: %w", rw.s, err)
				}
				solveSet = red.Reduced
				bounds[i] = red.MaxRadius()
				setLabel = fmt.Sprintf("reduced R=%d", red.R())
				ckptID = fmt.Sprintf("scale-s%d-r%d", rw.s, red.R())
			}
			opts.Chunks, opts.FixedQueries = spec, 47
			res, err := cfg.allocate(ckptID, w, solveSet, table3K, opts)
			if err != nil {
				return "", err
			}
			// The robustness verdict always comes from the FULL member set — the
			// streaming evaluator makes that cheap even at |S| = 400.
			evalStart := time.Now()
			m, err := eval.EvaluateStream(w, res.Allocation, seen, eval.StreamOptions{})
			if err != nil {
				return "", err
			}
			gaps[i] = m.MeanGap
			return fmt.Sprintf("%d\t%s\t%.4f\t%.3f\t%.4f\t%.3f\t%s\t%s\t%s\n",
				rw.s, setLabel, bounds[i], res.ReplicationFactor, m.MeanGap, m.MeanThroughput,
				fmtDur(res.SolveTime), fmtDur(time.Since(evalStart)), gapMark(res)), nil
		}, "")
	if err != nil {
		return err
	}

	// Within-bound check: a reduced solve balances its representatives
	// exactly, so every member sits within the cluster radius of perfect
	// balance — its E(L~)-1/K may exceed the full solve's by at most the
	// certified bound.
	for i, rw := range rows {
		if !rw.reduced {
			continue
		}
		for j, other := range rows {
			if other.reduced || other.s != rw.s {
				continue
			}
			verdict := "ok"
			if gaps[i] > gaps[j]+bounds[i]+1e-6 {
				verdict = "VIOLATED"
			}
			fmt.Fprintf(cfg.Out, "S=%d within-bound check: reduced gap %.4f <= full gap %.4f + bound %.4f  [%s]\n",
				rw.s, gaps[i], gaps[j], bounds[i], verdict)
		}
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
