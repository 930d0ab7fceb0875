package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
