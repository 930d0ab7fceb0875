package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func benchCfg(workload string, buf *bytes.Buffer) Config {
	return Config{
		Workload:    workload,
		Bench:       true,
		Budget:      400 * time.Millisecond, // 50 nodes a subproblem: quick under -race
		OutOfSample: 3,
		MaxQ:        80,
		Seed:        1,
		Out:         buf,
	}
}

func TestFig1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(benchCfg("tpcds", &buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 1", "rank", "cumulative", "top-50"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

// TestTable1PollsCanceled checks that Config.Canceled reaches the table's
// solves: a hook that asks every poll to stop is polled, and Table1 still
// returns without an error.
func TestTable1PollsCanceled(t *testing.T) {
	var buf bytes.Buffer
	cfg := benchCfg("tpcds", &buf)
	var polls atomic.Int64
	cfg.Canceled = func() bool { polls.Add(1); return true }
	if err := Table1(cfg); err != nil {
		t.Fatal(err)
	}
	if polls.Load() == 0 {
		t.Errorf("Table1 never polled Config.Canceled; it printed:\n%s", buf.String())
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(benchCfg("tpcds", &buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "W^D/V", "W^G/W^D", "2*"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q; got:\n%s", want, out)
		}
	}
}

func TestTable2AccountingFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale accounting clustering row")
	}
	var buf bytes.Buffer
	if err := Table2(benchCfg("accounting", &buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "4361") {
		t.Errorf("table2 accounting output missing F=4361; got:\n%s", buf.String())
	}
}

func TestTable3Output(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness rows are slow")
	}
	var buf bytes.Buffer
	if err := Table3(benchCfg("tpcds", &buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 3", "W(S)", "W^G(S)", "E(L~)-1/K"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q; got:\n%s", want, out)
		}
	}
}

// TestTable3InfeasibleRow runs the accounting row {S=10, F=4411} of the
// paper's Table 3 alone: its fixed queries overload node 0 in a seen
// scenario, which core refuses before any solve, and the table prints the
// row as infeasible with the refusal instead of failing.
func TestTable3InfeasibleRow(t *testing.T) {
	var rows []table3Row
	for _, row := range table3AcctQuick {
		if row.s == 10 && row.f == 4411 {
			rows = append(rows, row)
		}
	}
	if len(rows) != 1 {
		t.Fatalf("table3AcctQuick has %d rows {S=10, F=4411}, want 1", len(rows))
	}
	var buf bytes.Buffer
	cfg := benchCfg("accounting", &buf)
	w, err := cfg.load()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.table3(w, rows); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^W\(S\) +10 +4411 +infeasible .*above the node capacity`).MatchString(buf.String()) {
		t.Errorf("no infeasible row with the refusal; got:\n%s", buf.String())
	}
}

func TestScaleOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("scale rows solve the Table 3 configuration")
	}
	var buf bytes.Buffer
	if err := Scale(benchCfg("tpcds", &buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Scenario scale-out", "reduced R=2", "full S=4", "within-bound check"} {
		if !strings.Contains(out, want) {
			t.Errorf("scale output missing %q; got:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATED") {
		t.Errorf("scale output reports a deviation-bound violation:\n%s", out)
	}
}

// TestFig2PerScenario runs Figure 2 with its per-scenario series on the
// default row set, which holds the S=10 (ours) and S=2 (merge) rows 2b
// reads: each 2b column is one 2a row's evaluation, so it averages to that
// row's E((1/K)/L~) up to the printed rounding.
func TestFig2PerScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the default Figure 2 rows")
	}
	var buf bytes.Buffer
	cfg := benchCfg("tpcds", &buf)
	cfg.Bench = false
	cfg.Budget = 100 * time.Millisecond // 12 nodes a subproblem
	if err := Fig2(cfg, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	mean := func(re string) float64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)` + re + ` +[0-9.]+ +([0-9.]+)`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no row matching %q; got:\n%s", re, out)
		}
		v, _ := strconv.ParseFloat(m[1], 64)
		return v
	}
	ours, merge := mean(`^partial clustering \(F=47\) +10`), mean(`^greedy merge +2`)
	rows := regexp.MustCompile(`(?m)^\d+ +([0-9.]+) +([0-9.]+)$`).FindAllStringSubmatch(out[strings.Index(out, "Figure 2b"):], -1)
	if len(rows) != cfg.OutOfSample {
		t.Fatalf("Figure 2b has %d scenario rows, want %d; got:\n%s", len(rows), cfg.OutOfSample, out)
	}
	var sumMerge, sumOurs float64
	for _, r := range rows {
		m, _ := strconv.ParseFloat(r[1], 64)
		o, _ := strconv.ParseFloat(r[2], 64)
		sumMerge, sumOurs = sumMerge+m, sumOurs+o
	}
	n := float64(len(rows))
	if math.Abs(sumMerge/n-merge) > 1e-3 || math.Abs(sumOurs/n-ours) > 1e-3 {
		t.Errorf("2b means merge %.4f, ours %.4f; 2a rows read %.3f and %.3f; got:\n%s", sumMerge/n, sumOurs/n, merge, ours, out)
	}
}

func TestUnknownWorkload(t *testing.T) {
	var buf bytes.Buffer
	cfg := benchCfg("nope", &buf)
	if err := Fig1(cfg); err == nil {
		t.Error("want error for unknown workload")
	}
}

func TestTruncate(t *testing.T) {
	var buf bytes.Buffer
	cfg := benchCfg("accounting", &buf)
	w, err := cfg.load()
	if err != nil {
		t.Fatal(err)
	}
	tr := truncate(w, 50)
	if tr.NumQueries() != 50 {
		t.Fatalf("truncate kept %d queries, want 50", tr.NumQueries())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// The kept queries must be the most expensive ones.
	minKept := tr.Queries[0].Cost
	for _, q := range tr.Queries {
		if q.Cost < minKept {
			minKept = q.Cost
		}
	}
	dropped := 0
	for _, q := range w.Queries {
		if q.Cost > minKept {
			dropped++
		}
	}
	if dropped > 50 {
		t.Errorf("%d queries more expensive than the cheapest kept one", dropped)
	}
	// Truncating beyond Q is the identity.
	if truncate(w, 1<<30) != w {
		t.Error("truncate with huge maxQ should return the input")
	}
}

func TestRunRows(t *testing.T) {
	// Results land at their own index whatever the completion order, and
	// the first error in row order wins.
	got := make([]int, 16)
	err := runRows(4, len(got), func(i int) error {
		got[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("row %d computed %d, want %d", i, v, i*i)
		}
	}
	err = runRows(4, 8, func(i int) error {
		if i == 2 || i == 6 {
			return fmt.Errorf("row %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "row 2 failed" {
		t.Fatalf("want first error in row order, got %v", err)
	}
}

func TestRowPool(t *testing.T) {
	cases := []struct {
		cfg      int // Config.Parallelism
		rows     int
		wantRow  int
		wantCore int // inner core.Options.Parallelism
	}{
		{1, 10, 1, 1}, // serial rows keep the configured (serial) solves
		{4, 10, 4, 1}, // fanned-out rows solve serially inside
		{4, 1, 1, 4},  // a single row gets the whole width
		{8, 3, 3, 1},  // never more workers than rows
		{0, 1, 1, 0},  // GOMAXPROCS default passes through to the solve
	}
	for _, c := range cases {
		rowPar, innerPar := Config{Parallelism: c.cfg}.rowPool(c.rows)
		if rowPar != c.wantRow || innerPar != c.wantCore {
			t.Errorf("rowPool(Parallelism=%d, rows=%d) = (%d, %d), want (%d, %d)",
				c.cfg, c.rows, rowPar, innerPar, c.wantRow, c.wantCore)
		}
	}
}

var (
	durCell  = regexp.MustCompile(`\b[0-9]+(\.[0-9]+)?m?s\b`)
	spaceRun = regexp.MustCompile(` +`)
)

// maskDurations replaces every rendered duration with "T" and collapses the
// tabwriter's padding, whose width follows the widest duration in a column.
func maskDurations(out string) string {
	return spaceRun.ReplaceAllString(durCell.ReplaceAllString(out, "T"), " ")
}

// TestTablesGolden pins the rendered rows of the five solver-backed tables:
// the Bench row sets on TPC-DS under a budget no solve reaches (an hour buys
// 446 400 nodes; the stall rule ends each search first), with the
// wall-clock columns masked. Serial rows and fanned-out rows must print the
// same bytes.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every Bench row of five tables twice")
	}
	// Recorded with the symmetry-breaking rows deleted.
	const want = "e564cf77dcdd865ab77736ff61a8418b43a3234e380909a067ef43de186e63d0"
	for _, par := range []int{1, 4} {
		var buf bytes.Buffer
		cfg := benchCfg("tpcds", &buf)
		cfg.Budget = time.Hour
		cfg.Parallelism = par
		for _, table := range []func(Config) error{
			Table1, Table2, Table3,
			func(c Config) error { return Fig2(c, false) },
			Scale,
		} {
			if err := table(cfg); err != nil {
				t.Fatal(err)
			}
		}
		masked := maskDurations(buf.String())
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(masked))); got != want {
			t.Errorf("Parallelism %d: digest %s, want %s; masked output:\n%s", par, got, want, masked)
		}
	}
}
