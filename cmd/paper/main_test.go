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
func TestNegativeUnseen(t *testing.T) { wantUnseenRefused(t, "-3") }

// TestZeroUnseen checks that -unseen 0 is refused like a negative value,
// where it used to be rewritten to 30 scenarios.
func TestZeroUnseen(t *testing.T) { wantUnseenRefused(t, "0") }

// wantUnseenRefused runs paper with -unseen n and checks that it exits 1
// with one line about -unseen before any experiment runs.
func wantUnseenRefused(t *testing.T, n string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], "paper", "-unseen", n, "fig1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
		!strings.HasPrefix(string(out), "paper: -unseen: ") || strings.Count(string(out), "\n") != 1 {
		t.Errorf("-unseen %s: %v, output %q; want exit 1 and one line about -unseen", n, err, out)
	}
}
