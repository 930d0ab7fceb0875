package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fragalloc"
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

// TestNegativeDurationsAndParallel checks that a negative -budget, -timeout
// or -parallel ends in a one-line error and exit 1, where the first two used
// to mean no limit and the last GOMAXPROCS.
func TestNegativeDurationsAndParallel(t *testing.T) {
	wantOneLineExit(t, "-budget", "-workload", "tpcds", "-k", "2", "-budget", "-1s")
	wantOneLineExit(t, "-timeout", "-workload", "tpcds", "-k", "2", "-timeout", "-1s")
	wantOneLineExit(t, "-parallel", "-workload", "tpcds", "-k", "2", "-parallel", "-1")
}

// TestMergeOfTheDefaultScenario checks that -approach merge without an
// in-sample set solves the workload's default scenario, as lp and greedy do:
// a merge of one scenario is that scenario's greedy allocation. Accounting's
// default frequencies are not all 1, so it tells them from f_j = 1.
func TestMergeOfTheDefaultScenario(t *testing.T) {
	dir := t.TempDir()
	frags := map[string][][]int{}
	for _, approach := range []string{"greedy", "merge"} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out := filepath.Join(dir, approach+".json")
		msg, err := exec.CommandContext(ctx, os.Args[0], "allocate", "-workload", "accounting", "-k", "4",
			"-approach", approach, "-o", out).CombinedOutput()
		cancel()
		if err != nil {
			t.Fatalf("%s: %v: %s", approach, err, msg)
		}
		alloc, err := fragalloc.LoadAllocation(out)
		if err != nil {
			t.Fatal(err)
		}
		frags[approach] = alloc.Fragments
	}
	if !reflect.DeepEqual(frags["greedy"], frags["merge"]) {
		t.Error("merge of the default scenario placed other fragments than greedy")
	}
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
