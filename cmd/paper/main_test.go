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

// wantRefused runs paper with flag set to v and checks that it exits 1 with
// one line about flag before any experiment runs.
func wantRefused(t *testing.T, flag, v string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], "paper", flag, v, "fig1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
		!strings.HasPrefix(string(out), "paper: "+flag+": ") || strings.Count(string(out), "\n") != 1 {
		t.Errorf("%s %s: %v, output %q; want exit 1 and one line about %s", flag, v, err, out, flag)
	}
}
