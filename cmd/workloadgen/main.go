// Command workloadgen emits the built-in workloads, scenario sets, and drift
// streams as JSON, for use with cmd/allocate, cmd/evaluate, cmd/allocd, or
// external tooling.
//
// Usage:
//
//	workloadgen -workload tpcds -o tpcds.json
//	workloadgen -workload accounting -seed 9 -o accounting.json
//	workloadgen -workload tpcds -scenarios 10 -p 0.75 -o seen.json
//	workloadgen -workload tpcds -scenarios 1000 -scenario-seed 7 -no-baseline -o unseen7.json
//	workloadgen -workload tpcds -scenarios 5 -drift 20 -k 4 -o drift.json
//
// When it writes the workload itself, a nonzero -seed selects the
// workload's generator seed (tpcds and accounting alike; 0 is the canonical
// workload).
//
// With -scenarios > 0 the tool writes a scenario set (the first scenario is
// the deterministic f=1 baseline unless -no-baseline is set) instead of the
// workload itself.
//
// With -drift N the tool instead writes a seeded stream of N drift updates
// (frequency deltas, newly observed scenarios, node join/leave) against that
// scenario set, in the JSON shape allocd's POST /v1/update ingests — replay
// them in order to drive a reproducible drift experiment.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fragalloc"
	"fragalloc/internal/accounting"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
	"fragalloc/internal/service"
	"fragalloc/internal/tpcds"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "workloadgen: %v\n", err)
		os.Exit(1)
	}
}

// run is workloadgen's whole behaviour behind main: it parses args and
// writes the requested JSON to the -o file, or to out when there is none.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("workloadgen", flag.ExitOnError)
	workload := fs.String("workload", "tpcds", "workload: tpcds or accounting")
	seed := fs.Int64("seed", 0, "generator seed (0 = canonical default)")
	outPath := fs.String("o", "", "output file (default stdout)")
	scenarios := fs.Int("scenarios", 0, "emit a scenario set with this many scenarios instead of the workload")
	scenarioSeed := fs.Int64("scenario-seed", 0, "seed for -scenarios emission, separate from -seed (0 = use -seed); batch out-of-sample sets by varying it")
	p := fs.Float64("p", fragalloc.DefaultPresence, "query presence probability for random scenarios")
	noBaseline := fs.Bool("no-baseline", false, "scenario sets: omit the deterministic f=1 baseline (out-of-sample style)")
	drift := fs.Int("drift", 0, "emit a stream of this many drift updates for allocd instead of the workload")
	deltas := fs.Int("drift-deltas", 3, "drift: frequency deltas per plain update")
	maxDelta := fs.Float64("drift-max", 0.5, "drift: maximum magnitude of one frequency delta")
	observeProb := fs.Float64("drift-observe", 0.2, "drift: probability an update observes a new scenario")
	nodeProb := fs.Float64("drift-nodes", 0, "drift: probability an update resizes the cluster by ±1 node")
	k := fs.Int("k", 0, "drift: starting node count for -drift-nodes random walks")
	minK := fs.Int("min-k", 1, "drift: lower bound of the node-count walk")
	maxK := fs.Int("max-k", 0, "drift: upper bound of the node-count walk (0 = none)")
	_ = fs.Parse(args) // ExitOnError: Parse itself exits on a bad flag or -h
	if err := scenario.CheckPresence(*p); err != nil {
		return fmt.Errorf("-p: %w", err)
	}
	if err := scenario.CheckCount(*scenarios); err != nil {
		return fmt.Errorf("-scenarios: %w", err)
	}
	if err := scenario.CheckCount(*drift); err != nil {
		return fmt.Errorf("-drift: %w", err)
	}

	var generate func(int64) *model.Workload
	var wseed int64
	switch *workload {
	case "tpcds":
		generate, wseed = tpcds.WorkloadSeed, tpcds.DefaultSeed
	case "accounting":
		generate, wseed = accounting.WorkloadSeed, accounting.DefaultSeed
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}
	// Only the workload itself is generated under -seed; the scenario and
	// drift modes sample against the canonical workload.
	if *seed != 0 && *drift <= 0 && *scenarios <= 0 {
		wseed = *seed
	}
	w := generate(wseed)
	sseed := *seed
	if sseed == 0 {
		sseed = 1
	}

	var v any = w
	switch {
	case *drift > 0:
		// The base scenario set determines which scenario indices the
		// frequency deltas may hit; it matches what -scenarios alone would
		// emit, so one seed describes both files of a drift experiment.
		base := fragalloc.InSampleScenarios(w, max(*scenarios, 1), *p, sseed)
		if *nodeProb > 0 {
			switch lo := max(*minK, 1); {
			case *k < 1:
				return fmt.Errorf("-drift-nodes needs -k (the starting node count)")
			case *k < lo || *maxK > 0 && *k > *maxK:
				return fmt.Errorf("-k %d outside [-min-k, -max-k] = [%d, %d]", *k, lo, *maxK)
			case *maxK > 0 && *maxK <= lo:
				return fmt.Errorf("-drift-nodes needs room to walk: -min-k %d, -max-k %d", lo, *maxK)
			}
		}
		v = service.GenerateDrift(w, base, service.DriftConfig{
			Updates:         *drift,
			Seed:            sseed,
			DeltasPerUpdate: *deltas,
			MaxDelta:        *maxDelta,
			ObserveProb:     *observeProb,
			Presence:        *p,
			NodeProb:        *nodeProb,
			StartK:          *k,
			MinK:            *minK,
			MaxK:            *maxK,
		})
	case *scenarios > 0:
		// -scenario-seed decouples scenario sampling from the workload
		// generator seed, so one invocation per seed batch-emits disjoint
		// out-of-sample sets against the same workload (cmd/evaluate -sfile
		// streams them back without regenerating inline).
		if *scenarioSeed != 0 {
			sseed = *scenarioSeed
		}
		if *noBaseline {
			v = fragalloc.OutOfSampleScenarios(w, *scenarios, *p, sseed)
		} else {
			v = fragalloc.InSampleScenarios(w, *scenarios, *p, sseed)
		}
	}

	if *outPath == "" {
		return fragalloc.SaveJSONWriter(out, v)
	}
	return fragalloc.SaveJSON(*outPath, v)
}
