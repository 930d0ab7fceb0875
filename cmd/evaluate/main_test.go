package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fragalloc"
)

// TestMain lets a test run the command: a test binary whose first argument
// is "evaluate" runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "evaluate" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRunValidatesScenarioFile checks that a -sfile is held to the workload
// like -alloc is: a malformed set is refused with an error before any
// evaluation, instead of panicking or printing an L~ for it.
func TestRunValidatesScenarioFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Two fragments, two single-fragment queries, both fragments on both
	// nodes.
	workload := write("workload.json", `{"fragments": [{"id": 0, "size": 1}, {"id": 1, "size": 1}],
		"queries": [{"id": 0, "fragments": [0], "cost": 1, "frequency": 1},
			{"id": 1, "fragments": [1], "cost": 1, "frequency": 1}]}`)
	alloc := write("alloc.json", `{"k": 2, "fragments": [[0, 1], [0, 1]]}`)

	for _, tc := range []struct {
		name, sfile, want string
	}{
		{"valid", `{"frequencies": [[1, 1], [1, 0]], "weights": [1, 2]}`, "2 scenario(s)"},
		{"weights short", `{"frequencies": [[1, 1], [1, 0]], "weights": [1]}`, "has 1 weights, want 2"},
		{"negative frequency", `{"frequencies": [[2, -1]]}`, "query 1 has frequency -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sfile := write(strings.ReplaceAll(tc.name, " ", "_")+".json", tc.sfile)
			var out bytes.Buffer
			err := run([]string{"-in", workload, "-alloc", alloc, "-sfile", sfile}, &out)
			got := out.String()
			if err != nil {
				got = err.Error()
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("got %q (err %v), want it to contain %q", got, err, tc.want)
			}
			if tc.name != "valid" && (err == nil || out.Len() > 0) {
				t.Fatalf("err %v with output %q, want an error and no report", err, out.String())
			}
		})
	}
}

// TestRunRejectsNegativeScenarios checks that a negative -scenarios exits 1
// with a one-line error, where it used to evaluate the f=1 baseline.
func TestRunRejectsNegativeScenarios(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], "evaluate",
		"-workload", "tpcds", "-alloc", "unread.json", "-scenarios", "-5").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
		!strings.HasPrefix(string(out), "evaluate: -scenarios: ") || strings.Count(string(out), "\n") != 1 {
		t.Errorf("%v, output %q; want exit 1 and one line about -scenarios", err, out)
	}
}

// TestRunRejectsPresence checks that a -p outside (0,1] is a one-line error,
// not a panic in the scenario sampler.
func TestRunRejectsPresence(t *testing.T) {
	for _, p := range []string{"1.5", "0", "-0.5", "NaN"} {
		var out bytes.Buffer
		err := run([]string{"-workload", "tpcds", "-scenarios", "2", "-p", p}, &out)
		if err == nil || !strings.HasPrefix(err.Error(), "-p: ") || strings.Contains(err.Error(), "\n") || out.Len() > 0 {
			t.Errorf("-p %s: err %v with output %q, want one line about -p and no report", p, err, out.String())
		}
	}
}

// TestRunReport drives the report on allocations whose every L~ is known
// exactly: full replication on n of K nodes can route every scenario's load
// in equal shares over those n, so the f=1 baseline and each of -scenarios'
// unseen draws read L~ = 1/n, and -per-scenario prints one such line per
// scenario. K=3 takes the evaluator's closed form; K=16, above
// internal/eval's cutMaxK, takes its max-flow search, which no other
// command, table or benchmark workload reaches. With node 15 left empty the
// search starts at 1/16 and takes one Newton step to 1/15.
func TestRunReport(t *testing.T) {
	w := fragalloc.TPCDSWorkload()
	idle := fragalloc.FullReplication(w, 16)
	idle.Fragments[15] = nil
	for _, c := range []struct {
		alloc *fragalloc.Allocation
		n     int // nodes that store the fragments
	}{
		{fragalloc.FullReplication(w, 3), 3},
		{fragalloc.FullReplication(w, 16), 16},
		{idle, 15},
	} {
		alloc := filepath.Join(t.TempDir(), "full.json")
		if err := fragalloc.SaveJSON(alloc, c.alloc); err != nil {
			t.Fatal(err)
		}
		l := 1 / float64(c.n)
		for _, tc := range []struct {
			args []string
			n    int
		}{
			{nil, 1},
			{[]string{"-scenarios", "4", "-per-scenario"}, 4},
		} {
			var out bytes.Buffer
			if err := run(append([]string{"-workload", "tpcds", "-alloc", alloc}, tc.args...), &out); err != nil {
				t.Fatalf("K=%d %q: %v", c.alloc.K, tc.args, err)
			}
			report := out.String()
			want := []string{
				fmt.Sprintf("K=%d nodes, W/V=%d.0000, %d scenario(s)\n", c.alloc.K, c.n, tc.n),
				fmt.Sprintf("E(L~)          = %.6f  (perfect balance: %.6f)\n", l, 1/float64(c.alloc.K)),
			}
			if tc.n > 1 {
				for i := 1; i <= tc.n; i++ {
					want = append(want, fmt.Sprintf("scenario %3d: L~=%.6f throughput=%.4f\n", i, l, float64(c.n)/float64(c.alloc.K)))
				}
			}
			for _, line := range want {
				if !strings.Contains(report, line) {
					t.Errorf("K=%d on %d nodes %q: report lacks %q:\n%s", c.alloc.K, c.n, tc.args, line, report)
				}
			}
			if got := strings.Count(report, "scenario "); tc.n > 1 && got != tc.n {
				t.Errorf("K=%d on %d nodes %q: %d per-scenario lines, want %d:\n%s", c.alloc.K, c.n, tc.args, got, tc.n, report)
			}
		}
	}
}

// TestBadFlagExitsOne checks that an unknown or malformed flag ends in one
// line naming it and exit 1, where it used to print the usage and exit 2.
func TestBadFlagExitsOne(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-parallel", "two"}} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, os.Args[0], append([]string{"evaluate"}, args...)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.HasPrefix(string(out), "evaluate: ") ||
			!strings.Contains(string(out), args[0]) || strings.Count(string(out), "\n") != 1 {
			t.Errorf("%q: %v, output %q; want exit 1 and one line naming %s", args, err, out, args[0])
		}
	}
}

// TestHelpOutput checks that -h, run under the command's own name, exits 0
// and prints the usage recorded in testdata/help.txt byte for byte.
func TestHelpOutput(t *testing.T) {
	cmd := exec.Command(os.Args[0], "evaluate", "-h")
	cmd.Args[0] = "evaluate"
	out, err := cmd.CombinedOutput()
	want, rerr := os.ReadFile(filepath.Join("testdata", "help.txt"))
	if err != nil || rerr != nil || !bytes.Equal(out, want) {
		t.Errorf("-h: %v, %v, output:\n%s\nwant exit 0 and testdata/help.txt:\n%s", err, rerr, out, want)
	}
}
