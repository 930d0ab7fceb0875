package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test run the command: a test binary whose first argument
// is "paper" runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "paper" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNegativeUnseen checks that a negative -unseen ends in a one-line error
// and exit 1 before any experiment runs, where it used to evaluate an empty
// scenario set.
func TestNegativeUnseen(t *testing.T) { wantRefused(t, "-unseen", "-3") }

// TestZeroUnseen checks that -unseen 0 is refused like a negative value,
// where it used to be rewritten to 30 scenarios.
func TestZeroUnseen(t *testing.T) { wantRefused(t, "-unseen", "0") }

// TestNegativeDurationsAndParallel checks that a negative -budget, -timeout
// or -parallel ends in a one-line error and exit 1 before any experiment
// runs, where the first two used to mean no limit and the last GOMAXPROCS.
func TestNegativeDurationsAndParallel(t *testing.T) {
	wantRefused(t, "-budget", "-1s")
	wantRefused(t, "-timeout", "-1s")
	wantRefused(t, "-parallel", "-1")
}

// TestTimeoutInterruptsTheRun checks that a run cut short says so and exits
// 2: a 1 ns -timeout cuts every Table 1 row, which then differs from an
// uncut row only by its note. An uncut run exits 0.
func TestTimeoutInterruptsTheRun(t *testing.T) {
	if code, out := runPaper(t, "-budget", "1s", "-timeout", "1ns", "-unseen", "3", "table1"); code != 2 || !strings.Contains(out, "paper: run interrupted") {
		t.Errorf("-timeout 1ns: exit %d, output:\n%s\nwant exit 2 and \"run interrupted\"", code, out)
	}
	if code, out := runPaper(t, "-budget", "1s", "-unseen", "3", "fig1"); code != 0 || strings.Contains(out, "run interrupted") {
		t.Errorf("uncut: exit %d, output:\n%s\nwant exit 0", code, out)
	}
}

// TestBadCommandLineExitsOne checks that an unknown flag, no experiment or
// an unknown one, and -resume without -checkpoint exit 1 before any
// experiment runs, and that -h prints the usage and exits 0; exit 2 means
// only a run cut short.
func TestBadCommandLineExitsOne(t *testing.T) {
	if code, out := runPaper(t, "-bogus", "table1"); code != 1 ||
		!strings.HasPrefix(out, "paper: ") || !strings.Contains(out, "-bogus") || strings.Count(out, "\n") != 1 {
		t.Errorf("-bogus table1: exit %d, output %q; want exit 1 and one line naming -bogus", code, out)
	}
	for _, args := range [][]string{{}, {"table9"}, {"-resume", "fig1"}} {
		if code, out := runPaper(t, args...); code != 1 {
			t.Errorf("%q: exit %d, output:\n%s\nwant exit 1", args, code, out)
		}
	}
	if code, out := runPaper(t, "-h"); code != 0 || !strings.Contains(out, "usage: paper") {
		t.Errorf("-h: exit %d, output %q; want exit 0 and the usage", code, out)
	}
}

// wantRefused runs paper with flag set to v and checks that it exits 1 with
// one line about flag before any experiment runs.
func wantRefused(t *testing.T, flag, v string) {
	t.Helper()
	if code, out := runPaper(t, flag, v, "fig1"); code != 1 ||
		!strings.HasPrefix(out, "paper: "+flag+": ") || strings.Count(out, "\n") != 1 {
		t.Errorf("%s %s: exit %d, output %q; want exit 1 and one line about %s", flag, v, code, out, flag)
	}
}

// runPaper runs paper on args and returns its exit code and output.
func runPaper(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], append([]string{"paper"}, args...)...).CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return 0, string(out)
}
