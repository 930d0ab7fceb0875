// Command evaluate measures how well a fragment allocation copes with
// workload scenarios: the worst-case node load share L̃ per scenario and the
// paper's aggregate robustness metrics E(L̃) − 1/K and E((1/K)/L̃).
//
// Usage:
//
//	evaluate -workload tpcds -alloc alloc.json -scenarios 100 -seed 2
//	evaluate -in workload.json -alloc alloc.json -sfile unseen.json
//	evaluate -workload tpcds -alloc alloc.json            (default f=1)
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"fragalloc"
	"fragalloc/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
		os.Exit(1)
	}
}

// run is evaluate's whole behaviour behind main: it parses args, evaluates,
// and prints the report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	workload := fs.String("workload", "", "built-in workload: tpcds or accounting")
	in := fs.String("in", "", "workload JSON file (alternative to -workload)")
	allocPath := fs.String("alloc", "", "allocation JSON file (required)")
	scenarios := fs.Int("scenarios", 0, "sample this many random unseen scenarios")
	sfile := fs.String("sfile", "", "scenario set JSON file (alternative to -scenarios)")
	p := fs.Float64("p", fragalloc.DefaultPresence, "scenario presence probability")
	seed := fs.Int64("seed", 2, "scenario sampling seed")
	perScenario := fs.Bool("per-scenario", false, "print L~ for every scenario")
	parallel := fs.Int("parallel", 0, "evaluation worker pool width (0 = GOMAXPROCS); results are identical at any width")
	_ = fs.Parse(args) // ExitOnError: Parse itself exits on a bad flag or -h
	if err := scenario.CheckPresence(*p); err != nil {
		return fmt.Errorf("-p: %w", err)
	}
	if err := scenario.CheckCount(*scenarios); err != nil {
		return fmt.Errorf("-scenarios: %w", err)
	}

	if *allocPath == "" {
		return fmt.Errorf("-alloc is required")
	}
	w, err := fragalloc.NamedWorkload(*workload, *in)
	if err != nil {
		return err
	}
	alloc, err := fragalloc.LoadAllocation(*allocPath)
	if err != nil {
		return err
	}
	if err := alloc.Validate(w); err != nil {
		return fmt.Errorf("allocation does not fit the workload: %w", err)
	}

	var ss *fragalloc.ScenarioSet
	switch {
	case *sfile != "":
		ss, err = fragalloc.LoadScenarioSet(*sfile)
		if err != nil {
			return err
		}
		if err := ss.Validate(w); err != nil {
			return fmt.Errorf("scenario set does not fit the workload: %w", err)
		}
	case *scenarios > 0:
		ss = fragalloc.OutOfSampleScenarios(w, *scenarios, *p, *seed)
	default:
		ss = fragalloc.InSampleScenarios(w, 1, *p, *seed) // f = 1 baseline
	}

	m, err := fragalloc.EvaluateStream(w, alloc, ss, fragalloc.StreamOptions{Parallelism: *parallel})
	if err != nil {
		return err
	}
	invK := 1 / float64(alloc.K)
	fmt.Fprintf(out, "K=%d nodes, W/V=%.4f, %d scenario(s)\n", alloc.K, alloc.ReplicationFactor(w), len(m.L))
	fmt.Fprintf(out, "E(L~)          = %.6f  (perfect balance: %.6f)\n", m.MeanL, invK)
	fmt.Fprintf(out, "E(L~) - 1/K    = %.6f\n", m.MeanGap)
	fmt.Fprintf(out, "E((1/K)/L~)    = %.4f  (expected relative throughput)\n", m.MeanThroughput)
	if m.Unservable > 0 {
		fmt.Fprintf(out, "unservable     = %d scenario(s) with unplaceable queries\n", m.Unservable)
	}
	if *perScenario {
		for i, l := range m.L {
			if math.IsInf(l, 1) {
				fmt.Fprintf(out, "scenario %3d: unservable\n", i+1)
				continue
			}
			fmt.Fprintf(out, "scenario %3d: L~=%.6f throughput=%.4f\n", i+1, l, invK/l)
		}
	}
	return nil
}
