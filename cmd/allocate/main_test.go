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
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, os.Args[0], "allocate", "-workload", "tpcds", "-k", "2", "-scenarios", "2", "-p", p).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != exitInternal ||
			!strings.HasPrefix(string(out), "allocate: -p: ") || strings.Count(string(out), "\n") != 1 {
			t.Errorf("-p %s: %v, output %q; want exit %d and one line about -p", p, err, out, exitInternal)
		}
	}
}
