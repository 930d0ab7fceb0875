package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
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

// TestBudgetIsWorkNotTime checks that -budget decides the answer by work,
// not by the clock: under a budget small enough to stop the search before
// it proves optimality, a run beside a CPU-bound goroutine writes the same
// allocation bytes, after the same searches, as a run on an idle box.
func TestBudgetIsWorkNotTime(t *testing.T) {
	const budget = 50 * time.Millisecond
	dir := t.TempDir()
	// run returns the allocation file and the -v lines that end a
	// subproblem's search, sorted, since parallel splits log in any order.
	run := func(name string) ([]byte, []string) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		out := filepath.Join(dir, name+".json")
		msg, err := exec.CommandContext(ctx, os.Args[0], "allocate", "-workload", "tpcds", "-k", "4",
			"-budget", budget.String(), "-v", "-o", out).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v: %s", name, err, msg)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var solved []string
		for _, line := range strings.Split(string(msg), "\n") {
			if strings.HasPrefix(line, "core: split ") && strings.Contains(line, " solved (") {
				solved = append(solved, line)
			}
		}
		sort.Strings(solved)
		return b, solved
	}
	idle, idleSolved := run("idle")
	// The budget must bind, or the comparison shows nothing: some
	// subproblem's search says the node budget stopped it.
	binds := false
	for _, line := range idleSolved {
		if strings.Contains(line, "solved (feasible)") && strings.Contains(line, " stop=nodes ") {
			t.Logf("the budget binds: %s", line)
			binds = true
		}
	}
	if !binds {
		t.Fatalf("-budget %v never stopped a subproblem; searches:\n%s", budget, strings.Join(idleSolved, "\n"))
	}
	stop, spun := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(spun)
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	loaded, loadedSolved := run("loaded")
	close(stop)
	<-spun
	if !reflect.DeepEqual(idleSolved, loadedSolved) {
		t.Errorf("searches beside a CPU-bound goroutine:\n%s\nidle:\n%s", strings.Join(loadedSolved, "\n"), strings.Join(idleSolved, "\n"))
	}
	if !bytes.Equal(idle, loaded) {
		t.Error("the allocation written beside a CPU-bound goroutine differs from the idle run's")
	}
}

// TestTimeoutInterruptsTheRun checks that -timeout reaches the solver: a
// 1 ns timeout cuts the run short, which exits 2 and says so. A hook the
// solve never polls would let it run out its 1 s budget and exit 0.
func TestTimeoutInterruptsTheRun(t *testing.T) {
	code, out := runAllocate(t, "-workload", "tpcds", "-k", "4", "-budget", "1s", "-timeout", "1ns",
		"-o", filepath.Join(t.TempDir(), "a.json"))
	if code != exitDegraded || !strings.Contains(out, "run interrupted") {
		t.Errorf("-timeout 1ns: exit %d, output:\n%s\nwant exit %d and \"run interrupted\"", code, out, exitDegraded)
	}
}

// TestCheckpointResume drives -checkpoint and -resume through the command,
// with -chunks and -reduce on: a resumed run says so and ends no worse than
// the run it resumes, whose journaled incumbents it starts from; a resume
// under another -k is refused rather than replaying another model's records.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	args := func(k, chunks, out string, extra ...string) []string {
		return append([]string{"-workload", "tpcds", "-k", k, "-chunks", chunks, "-scenarios", "3", "-reduce", "2",
			"-budget", "1s", "-checkpoint", filepath.Join(dir, "ck"), "-o", filepath.Join(dir, out)}, extra...)
	}
	if code, out := runAllocate(t, args("4", "2+2", "a.json")...); code != exitOK || !strings.Contains(out, "reduced 3 scenarios to 2") {
		t.Fatalf("first run: exit %d, output:\n%s", code, out)
	}
	if code, out := runAllocate(t, args("4", "2+2", "b.json", "-resume")...); code != exitOK || !strings.Contains(out, "resuming from checkpoint journal") {
		t.Fatalf("resume: exit %d, output:\n%s", code, out)
	}
	w := fragalloc.TPCDSWorkload()
	wv := func(name string) float64 {
		alloc, err := fragalloc.LoadAllocation(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return alloc.ReplicationFactor(w)
	}
	if first, resumed := wv("a.json"), wv("b.json"); resumed > first {
		t.Errorf("the resumed run reads W/V %v, worse than the %v it resumed", resumed, first)
	}
	if code, out := runAllocate(t, args("6", "3+3", "c.json", "-resume")...); code != exitInternal || !strings.Contains(out, "written by a different run") {
		t.Errorf("resume under -k 6: exit %d, output:\n%s\nwant exit %d and the run-key refusal", code, out, exitInternal)
	}
}

// TestExportLPAndFullReplication drives the two approaches that solve
// nothing: -export-lp writes the exact MIP in CPLEX LP format, and -approach
// full stores every accessed fragment on every node, so W/V = K.
func TestExportLPAndFullReplication(t *testing.T) {
	dir := t.TempDir()
	lp := filepath.Join(dir, "m.lp")
	if code, out := runAllocate(t, "-workload", "tpcds", "-k", "2", "-export-lp", lp); code != exitOK {
		t.Fatalf("-export-lp: exit %d, output:\n%s", code, out)
	}
	if b, err := os.ReadFile(lp); err != nil || !bytes.Contains(b, []byte("\nMinimize\n")) || !bytes.HasSuffix(b, []byte("\nEnd\n")) {
		t.Errorf("-export-lp wrote %d bytes (%v), want an LP file from Minimize to End", len(b), err)
	}
	full := filepath.Join(dir, "full.json")
	if code, out := runAllocate(t, "-workload", "tpcds", "-k", "3", "-approach", "full", "-o", full); code != exitOK || !strings.Contains(out, "full W/V=3.0000") {
		t.Errorf("-approach full: exit %d, output:\n%s\nwant exit 0 and W/V=3.0000", code, out)
	}
}

// TestBadFlagExitsOne checks that an unknown or malformed flag ends in one
// line naming it and exit 1, and that -h prints the usage and exits 0; exit
// 2 means only a degraded or cut-short run.
func TestBadFlagExitsOne(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-k", "four"}} {
		if code, out := runAllocate(t, args...); code != exitInternal ||
			!strings.HasPrefix(out, "allocate: ") || !strings.Contains(out, args[0]) || strings.Count(out, "\n") != 1 {
			t.Errorf("%q: exit %d, output %q; want exit %d and one line naming %s", args, code, out, exitInternal, args[0])
		}
	}
	if code, out := runAllocate(t, "-h"); code != exitOK || !strings.Contains(out, "-workload") {
		t.Errorf("-h: exit %d, output %q; want exit 0 and the usage", code, out)
	}
}

// runAllocate runs allocate on args and returns its exit code and output.
func runAllocate(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], append([]string{"allocate"}, args...)...).CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return 0, string(out)
}

// wantOneLineExit runs allocate on args and checks that it exits 1 with one
// line of output, about flag.
func wantOneLineExit(t *testing.T, flag string, args ...string) {
	t.Helper()
	if code, out := runAllocate(t, args...); code != exitInternal ||
		!strings.HasPrefix(out, "allocate: "+flag+": ") || strings.Count(out, "\n") != 1 {
		t.Errorf("%q: exit %d, output %q; want exit %d and one line about %s", args, code, out, exitInternal, flag)
	}
}
