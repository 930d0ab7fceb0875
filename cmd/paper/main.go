// Command paper regenerates the tables and figures of the reproduced paper
// (Schlosser & Halfpap, EDBT 2021).
//
// Usage:
//
//	paper [flags] fig1|table1|table2|table3|fig2|scale|all
//
// Flags:
//
//	-workload tpcds|accounting   workload (default tpcds; fig2 and scale are
//	                             TPC-DS only)
//	-full                        paper-scale row sets (slow) instead of the
//	                             reduced laptop defaults
//	-budget 15s                  MIP time budget per subproblem (0 = none)
//	-timeout 0                   overall wall-clock limit; on expiry the
//	                             running experiment winds down with its best
//	                             incumbents (0 = none)
//	-unseen 30                   number of out-of-sample scenarios S̃
//	-maxq 300                    accounting truncation for Table 1b's LP rows
//	                             (0 = none)
//	-seed 1                      scenario sampling seed
//	-parallel 0                  concurrent table rows (0 = GOMAXPROCS, 1 = serial)
//	-checkpoint DIR              journal every LP row's solve progress durably
//	                             under DIR/<row-id> (DESIGN.md §3.9)
//	-resume                      restart rows from their -checkpoint journals:
//	                             fully-optimal rows replay bit-identically,
//	                             the rest warm-start from their incumbents
//	-per-scenario                with fig2: also print the Figure 2b series
//	-v                           verbose solver progress
//
// Results are plain text tables on stdout; EXPERIMENTS.md records a run
// side by side with the paper's numbers.
//
// A first SIGINT/SIGTERM winds the run down gracefully with its best
// incumbents; a second one forces an immediate exit with code 1 (with
// -checkpoint set, the journal written so far survives for -resume).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"fragalloc/internal/experiments"
	"fragalloc/internal/scenario"
	"fragalloc/internal/shutdown"
)

func main() {
	workload := flag.String("workload", "tpcds", "workload: tpcds or accounting")
	full := flag.Bool("full", false, "run the paper-scale row sets (slow)")
	budget := flag.Duration("budget", 15*time.Second, "MIP time budget per subproblem (0 = none)")
	timeout := flag.Duration("timeout", 0, "overall wall-clock limit; on expiry the run winds down with its best incumbents (0 = none)")
	unseen := flag.Int("unseen", 30, "number of out-of-sample scenarios")
	maxq := flag.Int("maxq", 300, "accounting workload truncation for Table 1b LP rows (0 = none)")
	seed := flag.Int64("seed", 1, "scenario sampling seed")
	parallel := flag.Int("parallel", 0, "concurrent table rows (0 = GOMAXPROCS, 1 = serial)")
	ckptDir := flag.String("checkpoint", "", "journal LP row progress durably under this directory")
	resume := flag.Bool("resume", false, "resume rows from their -checkpoint journals")
	perScenario := flag.Bool("per-scenario", false, "fig2: print the per-scenario series (Figure 2b)")
	verbose := flag.Bool("v", false, "verbose solver progress")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paper [flags] fig1|table1|table2|table3|fig2|scale|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	err := scenario.CheckCount(*unseen)
	if err == nil && *unseen == 0 {
		err = errors.New("no unseen scenarios to verify against")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paper: -unseen: %v\n", err)
		os.Exit(1)
	}
	switch {
	case *budget < 0:
		err = fmt.Errorf("-budget: %v is negative (0 = none)", *budget)
	case *timeout < 0:
		err = fmt.Errorf("-timeout: %v is negative (0 = none)", *timeout)
	case *parallel < 0:
		err = fmt.Errorf("-parallel: %d is negative (0 = GOMAXPROCS)", *parallel)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paper: %v\n", err)
		os.Exit(1)
	}

	// Ctrl-C / SIGTERM and -timeout share one cancellation context; the
	// solvers poll it and finish with their best incumbents (degraded rows
	// are tagged in the table output) instead of losing the whole run. A
	// second signal forces an immediate exit — the escape hatch when a long
	// LP has not yet reached its cancellation poll.
	ctx, cancel := shutdown.Graceful("paper", 1)
	defer cancel()
	if *timeout > 0 {
		var timeoutCancel context.CancelFunc
		ctx, timeoutCancel = context.WithTimeout(ctx, *timeout)
		defer timeoutCancel()
	}

	cfg := experiments.Config{
		Workload:      *workload,
		Full:          *full,
		Budget:        *budget,
		OutOfSample:   *unseen,
		MaxQ:          *maxq,
		Seed:          *seed,
		Parallelism:   *parallel,
		Out:           os.Stdout,
		Verbose:       *verbose,
		Canceled:      func() bool { return ctx.Err() != nil },
		CheckpointDir: *ckptDir,
		Resume:        *resume,
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "paper: -resume requires -checkpoint DIR")
		os.Exit(2)
	}

	switch flag.Arg(0) {
	case "fig1":
		err = experiments.Fig1(cfg)
	case "table1":
		err = experiments.Table1(cfg)
	case "table2":
		err = experiments.Table2(cfg)
	case "table3":
		err = experiments.Table3(cfg)
	case "fig2":
		err = experiments.Fig2(cfg, *perScenario)
	case "scale":
		err = experiments.Scale(cfg)
	case "all":
		for _, f := range []func() error{
			func() error { return experiments.Fig1(cfg) },
			func() error { return experiments.Table1(cfg) },
			func() error { return experiments.Table2(cfg) },
			func() error { return experiments.Table3(cfg) },
			func() error { return experiments.Fig2(cfg, true) },
			func() error { return experiments.Scale(cfg) },
		} {
			if err = f(); err != nil {
				break
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "paper: unknown experiment %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paper: %v\n", err)
		os.Exit(1)
	}
}
