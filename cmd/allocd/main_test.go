package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
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

// TestNegativeReduce checks that a negative -reduce ends in a one-line error
// and exit 1, where it used to boot the daemon with the reduction off. The
// refusal is service.New's, so the line is the service's.
func TestNegativeReduce(t *testing.T) {
	wantOneLineExit(t, "service", "-workload", "tpcds", "-scenarios", "3", "-reduce", "-2", "-addr", "127.0.0.1:0")
}

// TestNegativeDurationsAndCounts checks that a negative duration or count
// and a NaN -admit-rate end in a one-line error and exit 1 before the daemon
// starts: they used to mean no deadline (-budget, -solve-timeout),
// GOMAXPROCS (-parallel), 2 s (-lease-ttl), no gate (-max-pending) and no
// rate limit (-admit-rate).
func TestNegativeDurationsAndCounts(t *testing.T) {
	for _, c := range [][2]string{
		{"-budget", "-1s"}, {"-solve-timeout", "-1s"}, {"-lease-ttl", "-1s"},
		{"-parallel", "-1"}, {"-max-pending", "-1"}, {"-admit-rate", "NaN"}, {"-admit-rate", "-2"},
	} {
		wantOneLineExit(t, c[0], "-workload", "tpcds", c[0], c[1], "-addr", "127.0.0.1:0")
	}
}

// wantOneLineExit runs allocd on args and checks that it exits 1 with one
// line of output, about flag (or the package that refused it).
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

// TestHALeaderDrainsOnSignal boots a one-replica HA group with no
// -advertise: allocd -role auto takes the lease and adopts its bootstrap
// allocation, and a SIGTERM then hands the lease back (its file is gone) and
// exits 0.
func TestHALeaderDrainsOnSignal(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "allocd", "-workload", "tpcds", "-k", "2", "-budget", "1s",
		"-state", dir, "-role", "auto", "-node-id", "a", "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	adopted := false
	for sc := bufio.NewScanner(stderr); !adopted && sc.Scan(); {
		log.WriteString(sc.Text() + "\n")
		adopted = strings.HasPrefix(sc.Text(), "service: adopted epoch 0 ")
	}
	if adopted {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	rest, _ := io.ReadAll(stderr)
	log.Write(rest)
	if err := cmd.Wait(); err != nil || !adopted {
		t.Fatalf("adopted %v, exit %v; stderr:\n%s", adopted, err, log.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "leader.lease")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the lease file survived the drain (%v); stderr:\n%s", err, log.String())
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
		{"mip: node LP status %v at node %d; subtree skipped", true},
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
