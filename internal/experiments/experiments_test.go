package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"
)

func benchCfg(workload string, buf *bytes.Buffer) Config {
	return Config{
		Workload:    workload,
		Bench:       true,
		Budget:      time.Second,
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
// the Bench row sets on TPC-DS under a budget no solve reaches (the stall
// rule ends each one, so the search is deterministic), with the wall-clock
// columns masked. Serial rows and fanned-out rows must print the same bytes.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every Bench row of five tables twice")
	}
	// Recorded in PR 18, with the simplex's work-balanced refresh.
	const want = "cc8fb355044f5072b2c038e1fdbf8a903f07f2a92ecb62ad9896cdc150e9d0b2"
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
