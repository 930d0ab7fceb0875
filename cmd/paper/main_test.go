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
func TestNegativeUnseen(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], "paper", "-unseen", "-3", "fig1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
		!strings.HasPrefix(string(out), "paper: -unseen: ") || strings.Count(string(out), "\n") != 1 {
		t.Errorf("%v, output %q; want exit 1 and one line about -unseen", err, out)
	}
}
