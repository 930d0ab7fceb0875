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
// is "allocate" runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "allocate" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(exitOK)
	}
	os.Exit(m.Run())
}

// TestPresenceOutOfRange checks that a -p outside (0,1] ends in a one-line
// error and exit 1, not a panic in the scenario sampler.
func TestPresenceOutOfRange(t *testing.T) {
	for _, p := range []string{"1.5", "0", "NaN"} {
		wantOneLineExit(t, "-p", "-workload", "tpcds", "-k", "2", "-scenarios", "2", "-p", p)
	}
}

// TestNegativeScenarios checks that a negative -scenarios ends in a one-line
// error and exit 1, where it used to solve the deterministic S=1 case.
func TestNegativeScenarios(t *testing.T) {
	wantOneLineExit(t, "-scenarios", "-workload", "tpcds", "-k", "2", "-scenarios", "-3")
}

// TestNodesAndReduceOutOfRange checks that a -k below one and a negative
// -reduce end in a one-line error and exit 1 before any work: -k -1 used to
// panic in the full-replication allocation, -k 0 to print W/V=0.0000 before
// failing, and a negative -reduce to be taken as off.
func TestNodesAndReduceOutOfRange(t *testing.T) {
	wantOneLineExit(t, "-k", "-workload", "tpcds", "-approach", "full", "-k", "-1")
	wantOneLineExit(t, "-k", "-workload", "tpcds", "-approach", "full", "-k", "0")
	wantOneLineExit(t, "-reduce", "-workload", "tpcds", "-k", "2", "-scenarios", "3", "-reduce", "-2")
}

// wantOneLineExit runs allocate on args and checks that it exits 1 with one
// line of output, about flag.
func wantOneLineExit(t *testing.T, flag string, args ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], append([]string{"allocate"}, args...)...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != exitInternal ||
		!strings.HasPrefix(string(out), "allocate: "+flag+": ") || strings.Count(string(out), "\n") != 1 {
		t.Errorf("%q: %v, output %q; want exit %d and one line about %s", args, err, out, exitInternal, flag)
	}
}
