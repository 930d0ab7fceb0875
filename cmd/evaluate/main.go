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
	"math"
	"os"

	"fragalloc"
)

func main() {
	workload := flag.String("workload", "", "built-in workload: tpcds or accounting")
	in := flag.String("in", "", "workload JSON file (alternative to -workload)")
	allocPath := flag.String("alloc", "", "allocation JSON file (required)")
	scenarios := flag.Int("scenarios", 0, "sample this many random unseen scenarios")
	sfile := flag.String("sfile", "", "scenario set JSON file (alternative to -scenarios)")
	p := flag.Float64("p", fragalloc.DefaultPresence, "scenario presence probability")
	seed := flag.Int64("seed", 2, "scenario sampling seed")
	perScenario := flag.Bool("per-scenario", false, "print L~ for every scenario")
	parallel := flag.Int("parallel", 0, "evaluation worker pool width (0 = GOMAXPROCS); results are identical at any width")
	flag.Parse()

	if *allocPath == "" {
		fail(fmt.Errorf("-alloc is required"))
	}
	w, err := fragalloc.NamedWorkload(*workload, *in)
	if err != nil {
		fail(err)
	}
	alloc, err := fragalloc.LoadAllocation(*allocPath)
	if err != nil {
		fail(err)
	}
	if err := alloc.Validate(w); err != nil {
		fail(fmt.Errorf("allocation does not fit the workload: %w", err))
	}

	var ss *fragalloc.ScenarioSet
	switch {
	case *sfile != "":
		ss, err = fragalloc.LoadScenarioSet(*sfile)
		if err != nil {
			fail(err)
		}
	case *scenarios > 0:
		ss = fragalloc.OutOfSampleScenarios(w, *scenarios, *p, *seed)
	default:
		ss = fragalloc.InSampleScenarios(w, 1, *p, *seed) // f = 1 baseline
	}

	m, err := fragalloc.EvaluateStream(w, alloc, ss, fragalloc.StreamOptions{Parallelism: *parallel})
	if err != nil {
		fail(err)
	}
	invK := 1 / float64(alloc.K)
	fmt.Printf("K=%d nodes, W/V=%.4f, %d scenario(s)\n", alloc.K, alloc.ReplicationFactor(w), len(m.L))
	fmt.Printf("E(L~)          = %.6f  (perfect balance: %.6f)\n", m.MeanL, invK)
	fmt.Printf("E(L~) - 1/K    = %.6f\n", m.MeanGap)
	fmt.Printf("E((1/K)/L~)    = %.4f  (expected relative throughput)\n", m.MeanThroughput)
	if m.Unservable > 0 {
		fmt.Printf("unservable     = %d scenario(s) with unplaceable queries\n", m.Unservable)
	}
	if *perScenario {
		for i, l := range m.L {
			if math.IsInf(l, 1) {
				fmt.Printf("scenario %3d: unservable\n", i+1)
				continue
			}
			fmt.Printf("scenario %3d: L~=%.6f throughput=%.4f\n", i+1, l, invK/l)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
	os.Exit(1)
}
