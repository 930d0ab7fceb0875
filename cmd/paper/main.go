// Command paper regenerates the tables and figures of the reproduced paper
// (Schlosser & Halfpap, EDBT 2021).
//
// Usage:
//
//	paper [flags] fig1|table1|table2|table3|fig2|scale|all
//
// paper -h lists the flags.
//
// Results are plain text tables on stdout; EXPERIMENTS.md records a run
// side by side with the paper's numbers.
//
// A first SIGINT/SIGTERM winds the run down gracefully with its best
// incumbents; a second one forces an immediate exit with code 1 (with
// -checkpoint set, the journal written so far survives for -resume).
//
// Exit codes (README.md has the table the five commands share):
//
//	0  every experiment ran to the end
//	1  a bad command line (an unknown, malformed or out-of-range flag, no
//	   experiment or an unknown one, -resume without -checkpoint), an I/O or
//	   solver error, or a second signal
//	2  the run was cut short by -timeout or a signal: the tables are
//	   printed, but the rows it cut carry the incumbents found before it
//	   (or the greedy fallback), not what the budget buys
//
// -h prints the usage and exits 0.
package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"fragalloc/internal/cli"
	"fragalloc/internal/experiments"
	"fragalloc/internal/mip"
	"fragalloc/internal/scenario"
)

func main() {
	fs := cli.NewFlagSet("paper")
	run := cli.NewRun(fs)
	workload := fs.String("workload", "tpcds", "workload: tpcds or accounting")
	full := fs.Bool("full", false, "run the paper-scale row sets (slow)")
	budget := fs.Duration("budget", 15*time.Second, fmt.Sprintf("MIP budget per subproblem, bought as branch-and-bound nodes at %d/s, so machine load never changes the answer (0 = none)", mip.NodesPerSecond))
	unseen := fs.Int("unseen", 30, "number of out-of-sample scenarios")
	maxq := fs.Int("maxq", 300, "accounting workload truncation for Table 1b LP rows (0 = none)")
	seed := fs.Int64("seed", 1, "scenario sampling seed")
	parallel := fs.Int("parallel", 0, "concurrent table rows (0 = GOMAXPROCS, 1 = serial)")
	perScenario := fs.Bool("per-scenario", false, "fig2: print the per-scenario series (Figure 2b)")
	verbose := fs.Bool("v", false, "verbose solver progress")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: paper [flags] fig1|table1|table2|table3|fig2|scale|all\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(cli.ExitError)
	}
	if err := scenario.CheckCount(*unseen); err != nil {
		cli.Fail("paper", fmt.Errorf("-unseen: %w", err))
	}
	switch {
	case *unseen == 0:
		cli.Fail("paper", errors.New("-unseen: no unseen scenarios to verify against"))
	case *budget < 0:
		cli.Fail("paper", fmt.Errorf("-budget: %v is negative (0 = none)", *budget))
	case *parallel < 0:
		cli.Fail("paper", fmt.Errorf("-parallel: %d is negative (0 = GOMAXPROCS)", *parallel))
	}

	// The solvers poll the run's context and finish with their best
	// incumbents (degraded rows are tagged in the table output) instead of
	// losing the whole run.
	ctx, cancel := run.Context()
	defer cancel()

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
		CheckpointDir: run.Checkpoint,
		Resume:        run.Resume,
	}

	var err error
	switch fs.Arg(0) {
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
		fmt.Fprintf(os.Stderr, "paper: unknown experiment %q\n", fs.Arg(0))
		fs.Usage()
		os.Exit(cli.ExitError)
	}
	if err != nil {
		cli.Fail("paper", err)
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "paper: run interrupted (%v); the rows it cut short carry their best incumbents\n", ctx.Err())
		os.Exit(cli.ExitDegraded)
	}
}
