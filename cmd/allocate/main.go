// Command allocate computes a fragment allocation for a workload with any
// of the implemented approaches and writes it as JSON.
//
// Usage:
//
//	allocate -workload tpcds -k 4 -o alloc.json
//	allocate -in workload.json -k 8 -chunks 4+4 -fixed 47 -scenarios 10
//	allocate -workload accounting -k 6 -approach greedy
//	allocate -workload tpcds -k 8 -approach merge -scenarios 5
//
// Approaches:
//
//	lp      the paper's LP-based approach (default); honors -chunks, -fixed
//	greedy  the rule-based baseline of Rabl & Jacobsen (single scenario)
//	merge   greedy per scenario + Hungarian merge (multi-scenario baseline)
//	full    full replication
//
// The allocation JSON contains the per-node fragment lists and (for lp and
// greedy) the certified routing shares.
//
// A -timeout bounds the whole run; Ctrl-C (SIGINT) or SIGTERM triggers the
// same graceful wind-down. Either way the lp approach still emits its best
// partial allocation — complete and feasible, with budget-terminated
// subproblems carrying their incumbents and untouched ones degraded to the
// greedy allocator — plus a per-subproblem status breakdown on stderr.
//
// With -checkpoint DIR the lp approach additionally journals its progress
// durably, one record per subproblem: each completed solve, and every 30 s
// the incumbent of a MIP search still running, as the feasible record it
// would finish with. So a crash or kill loses at most the work since the
// last checkpoint; -resume restarts from the journal, replaying
// proven-optimal subproblems verbatim and re-solving the rest from their
// records. See DESIGN.md §3.9 for the format and guarantees.
//
// Exit codes (README.md has the table the five commands share):
//
//	0  allocation computed; every subproblem optimal or feasible-in-budget
//	1  a bad command line (an unknown, malformed or out-of-range flag), an
//	   I/O or solver error, or a second signal
//	2  allocation computed, but degraded (greedy fallback) or cut short by
//	   -timeout / a signal — feasible, yet without the usual guarantees
//	3  the input admits no feasible allocation
//
// A second SIGINT/SIGTERM skips the graceful wind-down and exits
// immediately with code 1, emitting no allocation — the escape hatch when a
// long LP has not yet noticed the first signal's cancellation. With
// -checkpoint set, the journal written so far survives for a later -resume.
package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"fragalloc"
	"fragalloc/internal/checkpoint"
	"fragalloc/internal/cli"
)

func main() {
	fs := cli.NewFlagSet("allocate")
	loadWorkload := cli.Source(fs)
	inSample := cli.Draw(fs)
	solver := cli.NewSolver(fs)
	run := cli.NewRun(fs)
	approach := fs.String("approach", "lp", "lp, greedy, merge, or full")
	reduceSeed := fs.Int64("reduce-seed", 1, "k-medoids initialization seed for -reduce")
	out := fs.String("o", "", "output file (default stdout)")
	exportLP := fs.String("export-lp", "", "write the exact MIP in CPLEX LP format to this file and exit")
	fs.Parse(os.Args[1:])

	ctx, cancel := run.Context()
	defer cancel()

	w, err := loadWorkload()
	if err != nil {
		cli.Fail("allocate", err)
	}
	ss := inSample(w)
	if solver.Reduce > 0 {
		if ss == nil {
			cli.Fail("allocate", fmt.Errorf("-reduce needs -scenarios > 1 (nothing to cluster)"))
		}
		red, err := fragalloc.ReduceScenarios(w, ss, fragalloc.ReduceConfig{R: solver.Reduce, Seed: *reduceSeed})
		if err != nil {
			cli.Fail("allocate", err)
		}
		fmt.Fprintf(os.Stderr, "allocate: reduced %d scenarios to %d weighted representatives (max deviation bound %.4f)\n",
			ss.S(), red.R(), red.MaxRadius())
		ss = red.Reduced
	}

	if *exportLP != "" {
		f, err := os.Create(*exportLP)
		if err != nil {
			cli.Fail("allocate", err)
		}
		if err := fragalloc.ExportLP(f, w, ss, solver.K, solver.Options); err != nil {
			cli.Fail("allocate", err)
		}
		if err := f.Close(); err != nil {
			cli.Fail("allocate", err)
		}
		fmt.Fprintf(os.Stderr, "allocate: wrote LP model to %s\n", *exportLP)
		return
	}

	var alloc *fragalloc.Allocation
	code := cli.ExitOK
	start := time.Now()
	switch *approach {
	case "lp":
		opt := solver.Options
		opt.Canceled = func() bool { return ctx.Err() != nil }
		rec, err := openRecorder(run.Checkpoint, run.Resume)
		if err != nil {
			cli.Fail("allocate", err)
		}
		opt.Checkpoint = rec
		res, err := fragalloc.Allocate(w, ss, solver.K, opt)
		if err != nil {
			if errors.Is(err, fragalloc.ErrInfeasible) {
				fmt.Fprintf(os.Stderr, "allocate: %v\n", err)
				os.Exit(cli.ExitInfeasible)
			}
			cli.Fail("allocate", err)
		}
		alloc = res.Allocation
		fmt.Fprintf(os.Stderr, "allocate: W/V=%.4f W=%.0f V=%.0f time=%v nodes=%d exact=%v\n",
			res.ReplicationFactor, res.W, res.V, res.SolveTime.Round(time.Millisecond), res.BBNodes, res.Exact)
		fmt.Fprintf(os.Stderr, "allocate: subproblems: %v (max gap %.4f)\n", res.Outcomes, res.MaxGap)
		if res.Canceled {
			fmt.Fprintf(os.Stderr, "allocate: run interrupted (%v); emitting the best partial allocation\n", ctx.Err())
		}
		if res.Outcomes.Degraded > 0 {
			fmt.Fprintf(os.Stderr, "allocate: %d subproblem(s) degraded to the greedy allocator, replication-factor delta ≤ %.4f\n",
				res.Outcomes.Degraded, res.DegradedDelta)
		}
		if res.Canceled || res.Outcomes.Degraded > 0 {
			code = cli.ExitDegraded
		}
		if rec != nil {
			if err := rec.SaveErr(); err != nil {
				fmt.Fprintf(os.Stderr, "allocate: warning: checkpoint journaling failed during the run: %v\n", err)
			}
		}
	case "greedy":
		alloc, err = fragalloc.GreedyAllocate(w, nil, solver.K)
		if err != nil {
			cli.Fail("allocate", err)
		}
	case "merge":
		if ss == nil {
			// One scenario, the default one: the merge is its greedy allocation.
			ss = fragalloc.SingleScenarioSet(w.DefaultFrequencies())
		}
		alloc, err = fragalloc.GreedyMergeAllocate(w, ss, solver.K)
		if err != nil {
			cli.Fail("allocate", err)
		}
	case "full":
		alloc = fragalloc.FullReplication(w, solver.K)
	default:
		cli.Fail("allocate", fmt.Errorf("unknown approach %q", *approach))
	}
	if *approach != "lp" {
		fmt.Fprintf(os.Stderr, "allocate: %s W/V=%.4f time=%v\n",
			*approach, alloc.ReplicationFactor(w), time.Since(start).Round(time.Millisecond))
	}

	if err := alloc.Validate(w); err != nil {
		cli.Fail("allocate", fmt.Errorf("internal error, invalid allocation: %w", err))
	}
	if *out == "" {
		if err := fragalloc.SaveJSONWriter(os.Stdout, alloc); err != nil {
			cli.Fail("allocate", err)
		}
		os.Exit(code)
	}
	if err := fragalloc.SaveJSON(*out, alloc); err != nil {
		cli.Fail("allocate", err)
	}
	os.Exit(code)
}

// openRecorder sets up the durable journal for the lp approach: it opens (or
// creates) the checkpoint directory and, with resume, loads the newest good
// generation to restart from. Resuming an empty directory starts fresh —
// that is what lets a crash-resume loop converge unattended.
func openRecorder(dir string, resume bool) (*checkpoint.Recorder, error) {
	if dir == "" {
		return nil, nil
	}
	st, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	rec, err := st.Recorder(resume)
	if err != nil {
		return nil, err
	}
	if rec.Resumed() {
		fmt.Fprintf(os.Stderr, "allocate: resuming from checkpoint journal in %s\n", dir)
	} else if resume {
		fmt.Fprintf(os.Stderr, "allocate: no checkpoint found in %s; starting fresh\n", dir)
	}
	return rec, nil
}
