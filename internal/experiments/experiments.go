// Package experiments regenerates every table and figure of the reproduced
// paper's evaluation (Section 2.4 and Section 4): the workload-skew
// distributions of Figure 1, the baseline comparison of Table 1, the
// partial-clustering results of Table 2, the robustness study of Table 3,
// and the memory/throughput frontiers of Figure 2.
//
// The same entry points drive the cmd/paper CLI and the testing.B
// benchmarks in the repository root. Because the LP/MIP substrate is a
// pure-Go solver rather than Gurobi, exact solves carry per-subproblem
// budgets; rows solved to a nonzero remaining gap are marked, and the
// harness's purpose is to reproduce the paper's qualitative shape (who
// wins, by what factor, where the trade-offs lie), as recorded in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"fragalloc/internal/accounting"
	"fragalloc/internal/checkpoint"
	"fragalloc/internal/core"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/tpcds"
)

// Config selects the workload and scale of an experiment run. A field's
// zero value means what its comment says; cmd/paper's flags own the
// defaults.
type Config struct {
	// Workload is "tpcds" or "accounting".
	Workload string
	// Full selects the paper-scale row set; the default is a reduced set
	// sized for a laptop run with the pure-Go solver.
	Full bool
	// Bench selects a minimal row set for the testing.B benchmarks: one or
	// two rows per table, exercising the same code paths end to end.
	Bench bool
	// Budget is the MIP budget per subproblem, converted to nodes by
	// mip.NodeBudget; 0 means no limit.
	Budget time.Duration
	// MaxQ truncates the accounting workload to its heaviest MaxQ queries
	// for the LP-based approaches of Table 1b, whose full-Q LPs exceed
	// practical solve budgets (≤ 0: no truncation; ignored for TPC-DS).
	MaxQ int
	// OutOfSample is the number of unseen verification scenarios S̃ for
	// Table 3 and Figure 2 (cmd/paper: 30, the paper: 100).
	OutOfSample int
	// Seed drives scenario sampling. Workload generators use their own
	// canonical seeds.
	Seed int64
	// Parallelism bounds how many table rows are computed concurrently
	// (0 = GOMAXPROCS, 1 = serial). Rows always render in order. When the
	// rows fan out, each row's Allocate runs its decomposition serially so
	// the total number of concurrent solves stays at this bound.
	Parallelism int
	// Out receives the rendered tables (required).
	Out io.Writer
	// Verbose enables solver progress logging to Out.
	Verbose bool
	// Canceled, when non-nil, is polled throughout every solve; once it
	// returns true, running rows wind down with their best incumbents
	// (marked by gapMark) instead of losing the run. cmd/paper wires the
	// -timeout flag and Ctrl-C here.
	Canceled func() bool
	// CheckpointDir, when set, journals every LP-based row's solve progress
	// durably under CheckpointDir/<row-id> (DESIGN.md §3.9), so a crashed
	// experiment run loses at most the work since the last checkpoint.
	// Resume restarts each row from its journal: rows whose subproblems all
	// proved optimal replay instantly and bit-identically, the rest
	// warm-start. cmd/paper wires -checkpoint and -resume here.
	CheckpointDir string
	Resume        bool
}

// load returns the configured workload.
func (c Config) load() (*model.Workload, error) {
	switch c.Workload {
	case "tpcds":
		return tpcds.Workload(), nil
	case "accounting":
		return accounting.Workload(), nil
	}
	return nil, fmt.Errorf("experiments: unknown workload %q (want tpcds or accounting)", c.Workload)
}

// truncate keeps the maxQ queries with the highest cost (the paper's Table
// 1 experiments use f_j = 1, so cost order is load order), renumbering IDs.
func truncate(w *model.Workload, maxQ int) *model.Workload {
	if maxQ <= 0 || maxQ >= len(w.Queries) {
		return w
	}
	t := w.Clone()
	sort.SliceStable(t.Queries, func(a, b int) bool { return t.Queries[a].Cost > t.Queries[b].Cost })
	t.Queries = t.Queries[:maxQ]
	// Restore deterministic ID order.
	sort.SliceStable(t.Queries, func(a, b int) bool { return t.Queries[a].ID < t.Queries[b].ID })
	for j := range t.Queries {
		t.Queries[j].ID = j
	}
	t.Name += fmt.Sprintf("-top%d", maxQ)
	return t
}

// ones returns the f_j = 1 frequency vector of Section 2.4.
func ones(w *model.Workload) []float64 {
	f := make([]float64, len(w.Queries))
	for j := range f {
		f[j] = 1
	}
	return f
}

func (c Config) coreLogf() func(string, ...any) {
	if !c.Verbose {
		return nil
	}
	var mu sync.Mutex
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(c.Out, "  # "+format+"\n", args...)
	}
}

// rowPool returns the effective worker count for n table rows and the
// Parallelism each row's inner Allocate should use: the decompositions run
// serially whenever the rows themselves fan out, so the configured bound
// caps the total number of concurrent solves either way.
func (c Config) rowPool(n int) (rowPar, innerPar int) {
	rowPar = c.Parallelism
	if rowPar <= 0 {
		rowPar = runtime.GOMAXPROCS(0)
	}
	if rowPar > n {
		rowPar = n
	}
	innerPar = 1
	if rowPar <= 1 {
		rowPar = 1
		innerPar = c.Parallelism
	}
	return rowPar, innerPar
}

// runRows computes n table rows through a bounded worker pool, collecting
// one error per row and returning the first in row order. The caller
// renders the collected results sequentially afterwards, so the printed
// tables are identical at every parallelism level.
func runRows(rowPar, n int, work func(i int) error) error {
	if rowPar <= 1 {
		for i := 0; i < n; i++ {
			if err := work(i); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, rowPar)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = work(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rowSet picks the row set a Config asks for: the Bench minimum, the Full
// paper-scale set, or the reduced default sized for a laptop run.
func rowSet[T any](c Config, quick, full, bench T) T {
	switch {
	case c.Bench:
		return bench
	case c.Full:
		return full
	}
	return quick
}

// table renders one solver-backed table: the title, the header, n rows
// computed through the row pool and printed in row order whatever their
// completion order, then footer (rows the table adds without a solve). Each
// row receives the option block every row's Allocate shares — the inner
// parallelism the pool leaves it, the budget, the cancel hook and one logger
// whose mutex serializes the rows' progress output.
func (c Config) table(title, header string, n int, row func(i int, opts core.Options) (string, error), footer string) error {
	fmt.Fprintln(c.Out, title)
	t := newTable(c.Out)
	fmt.Fprintln(t, header)
	rowPar, innerPar := c.rowPool(n)
	// Each subproblem gets a node budget plus a stall rule, so easy
	// instances return quickly and hard ones use the full budget — the
	// paper's runtime contrast. core hands Canceled to every search and LP.
	opts := core.Options{Parallelism: innerPar, MIP: mip.Options{MaxNodes: mip.NodeBudget(c.Budget), MaxStallNodes: 150}, Logf: c.coreLogf(), Canceled: c.Canceled}
	lines := make([]string, n)
	err := runRows(rowPar, n, func(i int) (err error) {
		lines[i], err = row(i, opts)
		return err
	})
	if err != nil {
		return err
	}
	for _, line := range lines {
		fmt.Fprint(t, line)
	}
	fmt.Fprint(t, footer)
	return t.Flush()
}

// allocate solves one table row: opts is the table's shared block with the
// row's Chunks and FixedQueries filled in. With checkpointing on, the row
// journals under CheckpointDir/rowID — every row gets its own subdirectory,
// because the rows solve different models (different K, F, scenario sets)
// and a checkpoint journal binds to exactly one model fingerprint.
func (c Config) allocate(rowID string, w *model.Workload, ss *model.ScenarioSet, k int, opts core.Options) (*core.Result, error) {
	if c.CheckpointDir != "" {
		st, err := checkpoint.Open(filepath.Join(c.CheckpointDir, rowID))
		if err != nil {
			return nil, err
		}
		if opts.Checkpoint, err = st.Recorder(c.Resume); err != nil {
			return nil, err
		}
	}
	res, err := core.Allocate(w, ss, k, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rowID, err)
	}
	return res, nil
}

// newTable returns a tabwriter for aligned output.
func newTable(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

// gapMark annotates a replication factor when the solve stopped at a
// nonzero optimality gap (budget bound). The gap is the absolute objective
// gap, which bounds the memory suboptimality in W/V units.
func gapMark(res *core.Result) string {
	if res.Exact {
		return ""
	}
	if res.MaxGap <= 0 {
		return "~(bound unproven)"
	}
	return fmt.Sprintf("~(gap<=%.2f W/V)", res.MaxGap)
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%.0fms", float64(d.Milliseconds()))
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}
