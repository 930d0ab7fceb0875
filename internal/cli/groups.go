package cli

import (
	"context"
	"fmt"
	"time"

	"fragalloc"
	"fragalloc/internal/mip"
	"fragalloc/internal/scenario"
)

// Source registers the workload source, -workload and -in, on fs (allocate,
// allocd, evaluate); the function it returns loads the workload they name.
func Source(fs *FlagSet) func() (*fragalloc.Workload, error) {
	name := fs.String("workload", "", "built-in workload: tpcds or accounting")
	path := fs.String("in", "", "workload JSON file (alternative to -workload)")
	return func() (*fragalloc.Workload, error) { return fragalloc.NamedWorkload(*name, *path) }
}

// Draw registers the in-sample scenario draw, -scenarios, -p and -seed, on
// fs (allocate, allocd). The function it returns draws the set for a
// workload, or returns nil for the deterministic S = 1.
func Draw(fs *FlagSet) func(*fragalloc.Workload) *fragalloc.ScenarioSet {
	s := fs.Int("scenarios", 1, "number of in-sample scenarios S (1 = deterministic)")
	p := fs.Float64("p", fragalloc.DefaultPresence, "scenario presence probability")
	seed := fs.Int64("seed", 1, "scenario sampling seed")
	fs.checks = append(fs.checks, func() error { return CheckDraw(*s, *p) })
	return func(w *fragalloc.Workload) *fragalloc.ScenarioSet {
		if *s <= 1 {
			return nil
		}
		return fragalloc.InSampleScenarios(w, *s, *p, *seed)
	}
}

// CheckDraw refuses a -p outside (0,1] and a negative -scenarios, for every
// command that draws scenarios.
func CheckDraw(scenarios int, p float64) error {
	if err := scenario.CheckPresence(p); err != nil {
		return fmt.Errorf("-p: %w", err)
	}
	if err := scenario.CheckCount(scenarios); err != nil {
		return fmt.Errorf("-scenarios: %w", err)
	}
	return nil
}

// Solver is the solver's settings, from -k, -chunks, -fixed, -budget,
// -parallel, -reduce and -v (allocate, allocd), once Parse has checked them.
type Solver struct {
	K, Reduce int
	Options   fragalloc.Options // Chunks, FixedQueries, Parallelism, MIP; Logf under -v
}

// NewSolver registers the solver's flags on fs.
func NewSolver(fs *FlagSet) *Solver {
	k := fs.Int("k", 4, "number of replica nodes K")
	chunks := fs.String("chunks", "", "decomposition spec, e.g. 4+4 (default: exact)")
	fixed := fs.Int("fixed", 0, "partial clustering: number of fixed queries F")
	budget := fs.Duration("budget", 30*time.Second, fmt.Sprintf("MIP budget per subproblem, bought as branch-and-bound nodes at %d/s, so machine load never changes the answer (0 = none)", mip.NodesPerSecond))
	parallel := fs.Int("parallel", 0, "concurrent subproblem solves (0 = GOMAXPROCS, 1 = serial)")
	reduce := fs.Int("reduce", 0, "solve over this many clustered scenario representatives instead of the full set (0 = off)")
	verbose := fs.Bool("v", false, "progress logging to stderr")
	s := &Solver{}
	fs.checks = append(fs.checks, func() error {
		switch {
		case *k < 1:
			return fmt.Errorf("-k: %d nodes, need at least one", *k)
		case *fixed < 0:
			return fmt.Errorf("-fixed: %d fixed queries is negative (0 = none)", *fixed)
		case *reduce < 0:
			return fmt.Errorf("-reduce: %d representatives is negative (0 = off)", *reduce)
		case *budget < 0:
			return fmt.Errorf("-budget: %v is negative (0 = none)", *budget)
		case *parallel < 0:
			return fmt.Errorf("-parallel: %d is negative (0 = GOMAXPROCS)", *parallel)
		}
		s.K, s.Reduce = *k, *reduce
		s.Options = fragalloc.Options{
			FixedQueries: *fixed,
			Parallelism:  *parallel,
			MIP:          mip.Options{MaxNodes: mip.NodeBudget(*budget), MaxStallNodes: 300},
		}
		if *chunks != "" {
			spec, err := fragalloc.ParseChunks(*chunks)
			if err != nil {
				return fmt.Errorf("-chunks: %w", err)
			}
			s.Options.Chunks = spec
		}
		if *verbose {
			s.Options.Logf = Logf
		}
		return nil
	})
	return s
}

// Run is run control, from -timeout, -checkpoint and -resume (allocate,
// paper), once Parse has checked them.
type Run struct {
	Checkpoint string // the journal directory; empty for none
	Resume     bool

	prog    string
	timeout time.Duration
}

// NewRun registers the run-control flags on fs.
func NewRun(fs *FlagSet) *Run {
	timeout := fs.Duration("timeout", 0, "overall wall-clock limit; on expiry the run winds down with its best incumbents (0 = none)")
	checkpoint := fs.String("checkpoint", "", "journal LP solve progress durably under this directory")
	resume := fs.Bool("resume", false, "resume from the journal in -checkpoint instead of starting fresh")
	r := &Run{prog: fs.Name()}
	fs.checks = append(fs.checks, func() error {
		switch {
		case *timeout < 0:
			return fmt.Errorf("-timeout: %v is negative (0 = none)", *timeout)
		case *resume && *checkpoint == "":
			return fmt.Errorf("-resume requires -checkpoint DIR")
		}
		r.Checkpoint, r.Resume, r.timeout = *checkpoint, *resume, *timeout
		return nil
	})
	return r
}

// Context returns the run's cancellation context, which Ctrl-C / SIGTERM
// (Graceful) and -timeout share: the solvers poll it and wind down with
// their best incumbents instead of dying mid-write.
func (r *Run) Context() (context.Context, context.CancelFunc) {
	ctx, cancel := Graceful(r.prog)
	if r.timeout == 0 {
		return ctx, cancel
	}
	ctx, cancelTimeout := context.WithTimeout(ctx, r.timeout)
	return ctx, func() { cancelTimeout(); cancel() }
}
