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
// is "allocd" runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "allocd" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(exitOK)
	}
	os.Exit(m.Run())
}

// TestPresenceOutOfRange checks that a -p outside (0,1] ends in a one-line
// error and exit 1 before the daemon starts, not a panic in the scenario
// sampler.
func TestPresenceOutOfRange(t *testing.T) {
	for _, p := range []string{"1.5", "0", "NaN"} {
		wantOneLineExit(t, "-p", "-workload", "tpcds", "-scenarios", "2", "-p", p, "-addr", "127.0.0.1:0")
	}
}

// TestNegativeScenarios checks that a negative -scenarios ends in a one-line
// error and exit 1, where it used to boot the daemon on S=1.
func TestNegativeScenarios(t *testing.T) {
	wantOneLineExit(t, "-scenarios", "-workload", "tpcds", "-scenarios", "-3", "-addr", "127.0.0.1:0")
}

// wantOneLineExit runs allocd on args and checks that it exits 1 with one
// line of output, about flag.
func wantOneLineExit(t *testing.T, flag string, args ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], append([]string{"allocd"}, args...)...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != exitInternal ||
		!strings.HasPrefix(string(out), "allocd: "+flag+": ") || strings.Count(string(out), "\n") != 1 {
		t.Errorf("%q: %v, output %q; want exit %d and one line about %s", args, err, out, exitInternal, flag)
	}
}

// TestSolverProgress pins what quiet mode (no -v) drops: the solver's
// progress lines and nothing else — a failed journal write, a lost lease or
// a role change must reach stderr either way.
func TestSolverProgress(t *testing.T) {
	for _, c := range []struct {
		format string
		want   bool
	}{
		{"core: solving split %v (B=%d, %d flexible queries, %d fragments) for leaves %d..%d", true},
		{"core: split %v degraded to the greedy allocator (%v)", true},
		{"mip: node %d depth %d obj=%.6f iters=%d", true},
		{"service: warning: journaling %s failed: %v", false},
		{"service: lease renewal failed: %v", false},
		{"service: %s leading at fencing epoch %d (ttl %v)", false},
		{"service: %s following (leader %q)", false},
		{"service: adopted epoch %d (%s, W/V=%.4f, %v, warm=%v)", false},
		{"allocd: serving on %s", false},
		{"service: core: a service line that merely mentions the solver", false},
		{"", false},
	} {
		if got := solverProgress(c.format); got != c.want {
			t.Errorf("solverProgress(%q) = %v, want %v", c.format, got, c.want)
		}
	}
}
