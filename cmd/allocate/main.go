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
// Exit codes:
//
//	0  allocation computed; every subproblem optimal or feasible-in-budget
//	2  allocation computed, but degraded (greedy fallback) or cut short by
//	   -timeout / a signal — feasible, yet without the usual guarantees
//	3  the input admits no feasible allocation
//	1  internal error (bad flags, I/O, solver bug)
//
// A second SIGINT/SIGTERM skips the graceful wind-down and exits
// immediately with code 1, emitting no allocation — the escape hatch when a
// long LP has not yet noticed the first signal's cancellation. With
// -checkpoint set, the journal written so far survives for a later -resume.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"fragalloc"
	"fragalloc/internal/checkpoint"
	"fragalloc/internal/mip"
	"fragalloc/internal/scenario"
	"fragalloc/internal/shutdown"
)

// Exit codes; see the package doc.
const (
	exitOK         = 0
	exitInternal   = 1
	exitDegraded   = 2
	exitInfeasible = 3
)

func main() {
	workload := flag.String("workload", "", "built-in workload: tpcds or accounting")
	in := flag.String("in", "", "workload JSON file (alternative to -workload)")
	k := flag.Int("k", 4, "number of replica nodes K")
	approach := flag.String("approach", "lp", "lp, greedy, merge, or full")
	chunks := flag.String("chunks", "", "decomposition spec for lp, e.g. 4+4 (default: exact)")
	fixed := flag.Int("fixed", 0, "partial clustering: number of fixed queries F")
	scenarios := flag.Int("scenarios", 1, "number of in-sample scenarios S (1 = deterministic)")
	p := flag.Float64("p", fragalloc.DefaultPresence, "scenario presence probability")
	seed := flag.Int64("seed", 1, "scenario sampling seed")
	reduce := flag.Int("reduce", 0, "cluster the scenario set down to R weighted representatives before solving (0 = off)")
	reduceSeed := flag.Int64("reduce-seed", 1, "k-medoids initialization seed for -reduce")
	budget := flag.Duration("budget", 30*time.Second, "MIP time budget per subproblem (lp)")
	timeout := flag.Duration("timeout", 0, "overall wall-clock limit; on expiry lp emits its best partial allocation (0 = none)")
	parallel := flag.Int("parallel", 0, "concurrent subproblem solves for lp (0 = GOMAXPROCS, 1 = serial)")
	ckptDir := flag.String("checkpoint", "", "journal lp solve progress durably into this directory")
	resume := flag.Bool("resume", false, "resume from the journal in -checkpoint instead of starting fresh")
	out := flag.String("o", "", "output file (default stdout)")
	exportLP := flag.String("export-lp", "", "write the exact MIP in CPLEX LP format to this file and exit")
	verbose := flag.Bool("v", false, "progress logging to stderr")
	flag.Parse()
	if err := scenario.CheckPresence(*p); err != nil {
		fail(fmt.Errorf("-p: %w", err))
	}
	if err := scenario.CheckCount(*scenarios); err != nil {
		fail(fmt.Errorf("-scenarios: %w", err))
	}
	if *k < 1 {
		fail(fmt.Errorf("-k: %d nodes, need at least one", *k))
	}
	if *reduce < 0 {
		fail(fmt.Errorf("-reduce: %d representatives is negative (0 = off)", *reduce))
	}
	if *budget < 0 {
		fail(fmt.Errorf("-budget: %v is negative (0 = none)", *budget))
	}
	if *timeout < 0 {
		fail(fmt.Errorf("-timeout: %v is negative (0 = none)", *timeout))
	}
	if *parallel < 0 {
		fail(fmt.Errorf("-parallel: %d is negative (0 = GOMAXPROCS)", *parallel))
	}

	// Ctrl-C / SIGTERM and -timeout share one cancellation context: the
	// solvers poll ctx.Err down to individual simplex iterations and wind
	// down with their best incumbents instead of dying mid-write. A second
	// signal forces an immediate exit — the escape hatch when a long LP has
	// not yet reached its cancellation poll (see the exit-code table above).
	ctx, cancel := shutdown.Graceful("allocate", exitInternal)
	defer cancel()
	if *timeout > 0 {
		var timeoutCancel context.CancelFunc
		ctx, timeoutCancel = context.WithTimeout(ctx, *timeout)
		defer timeoutCancel()
	}

	w, err := fragalloc.NamedWorkload(*workload, *in)
	if err != nil {
		fail(err)
	}
	var ss *fragalloc.ScenarioSet
	if *scenarios > 1 {
		ss = fragalloc.InSampleScenarios(w, *scenarios, *p, *seed)
	}
	if *reduce > 0 {
		if ss == nil {
			fail(fmt.Errorf("-reduce needs -scenarios > 1 (nothing to cluster)"))
		}
		red, err := fragalloc.ReduceScenarios(w, ss, fragalloc.ReduceConfig{R: *reduce, Seed: *reduceSeed})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "allocate: reduced %d scenarios to %d weighted representatives (max deviation bound %.4f)\n",
			ss.S(), red.R(), red.MaxRadius())
		ss = red.Reduced
	}

	if *exportLP != "" {
		f, err := os.Create(*exportLP)
		if err != nil {
			fail(err)
		}
		if err := fragalloc.ExportLP(f, w, ss, *k, fragalloc.Options{FixedQueries: *fixed}); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "allocate: wrote LP model to %s\n", *exportLP)
		return
	}

	var alloc *fragalloc.Allocation
	code := exitOK
	start := time.Now()
	switch *approach {
	case "lp":
		opt := fragalloc.Options{
			FixedQueries: *fixed,
			Parallelism:  *parallel,
			MIP:          mip.Options{TimeLimit: *budget, MaxStallNodes: 300},
			Canceled:     func() bool { return ctx.Err() != nil },
		}
		if *chunks != "" {
			spec, err := fragalloc.ParseChunks(*chunks)
			if err != nil {
				fail(err)
			}
			opt.Chunks = spec
		}
		if *verbose {
			opt.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		rec, err := openRecorder(*ckptDir, *resume)
		if err != nil {
			fail(err)
		}
		opt.Checkpoint = rec
		res, err := fragalloc.Allocate(w, ss, *k, opt)
		if err != nil {
			if errors.Is(err, fragalloc.ErrInfeasible) {
				fmt.Fprintf(os.Stderr, "allocate: %v\n", err)
				os.Exit(exitInfeasible)
			}
			fail(err)
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
			code = exitDegraded
		}
		if rec != nil {
			if err := rec.SaveErr(); err != nil {
				fmt.Fprintf(os.Stderr, "allocate: warning: checkpoint journaling failed during the run: %v\n", err)
			}
		}
	case "greedy":
		alloc, err = fragalloc.GreedyAllocate(w, nil, *k)
		if err != nil {
			fail(err)
		}
	case "merge":
		if ss == nil {
			// One scenario, the default one: the merge is its greedy allocation.
			ss = fragalloc.SingleScenarioSet(w.DefaultFrequencies())
		}
		alloc, err = fragalloc.GreedyMergeAllocate(w, ss, *k)
		if err != nil {
			fail(err)
		}
	case "full":
		alloc = fragalloc.FullReplication(w, *k)
	default:
		fail(fmt.Errorf("unknown approach %q", *approach))
	}
	if *approach != "lp" {
		fmt.Fprintf(os.Stderr, "allocate: %s W/V=%.4f time=%v\n",
			*approach, alloc.ReplicationFactor(w), time.Since(start).Round(time.Millisecond))
	}

	if err := alloc.Validate(w); err != nil {
		fail(fmt.Errorf("internal error, invalid allocation: %w", err))
	}
	if *out == "" {
		if err := fragalloc.SaveJSONWriter(os.Stdout, alloc); err != nil {
			fail(err)
		}
		os.Exit(code)
	}
	if err := fragalloc.SaveJSON(*out, alloc); err != nil {
		fail(err)
	}
	os.Exit(code)
}

// openRecorder sets up the durable journal for the lp approach: it opens (or
// creates) the checkpoint directory and, with resume, loads the newest good
// generation to restart from. Resuming an empty directory starts fresh —
// that is what lets a crash-resume loop converge unattended.
func openRecorder(dir string, resume bool) (*checkpoint.Recorder, error) {
	if dir == "" {
		if resume {
			return nil, fmt.Errorf("-resume requires -checkpoint DIR")
		}
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

func fail(err error) {
	fmt.Fprintf(os.Stderr, "allocate: %v\n", err)
	os.Exit(exitInternal)
}
