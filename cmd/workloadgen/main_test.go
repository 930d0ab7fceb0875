package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fragalloc/internal/service"
)

// TestMain lets a test run the command: a test binary whose first argument
// is "workloadgen" runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "workloadgen" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestErrorExitsOne checks that an error run returns ends the command with
// exit 1 and one line on stderr, and nothing on stdout.
func TestErrorExitsOne(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "workloadgen", "-workload", "nope")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout.Len() > 0 ||
		stderr.String() != "workloadgen: unknown workload \"nope\"\n" {
		t.Errorf("%v, stdout %q, stderr %q; want exit 1 and one line about the workload", err, stdout.String(), stderr.String())
	}
}

// TestRun checks that -seed selects the generator seed of the workload the
// tool writes — a seed other than the workload's canonical one writes a
// different workload, the canonical seed the default one — that
// -scenario-seed takes the place of -seed in a scenario set's draw and
// -no-baseline drops its f=1 scenario, and that a bad flag combination is
// returned as an error rather than exiting.
func TestRun(t *testing.T) {
	emit := func(args []string) (string, error) {
		var out bytes.Buffer
		err := run(args, &out)
		return out.String(), err
	}
	for _, tc := range []struct {
		name    string
		args    []string
		same    []string // args whose output must equal this one's
		differs []string // args whose output must differ from this one's
		wantErr string
	}{
		{name: "tpcds -seed 9", args: []string{"-workload", "tpcds", "-seed", "9"}, differs: []string{"-workload", "tpcds"}},
		{name: "accounting -seed 9", args: []string{"-workload", "accounting", "-seed", "9"}, differs: []string{"-workload", "accounting"}},
		{name: "tpcds -seed 1", args: []string{"-workload", "tpcds", "-seed", "1"}, same: []string{"-workload", "tpcds"}},
		{name: "accounting -seed 7", args: []string{"-workload", "accounting", "-seed", "7"}, same: []string{"-workload", "accounting"}},
		{name: "-scenario-seed 7", args: []string{"-scenarios", "3", "-scenario-seed", "7"}, differs: []string{"-scenarios", "3"}},
		{name: "-scenario-seed 5", args: []string{"-scenarios", "3", "-scenario-seed", "5"}, same: []string{"-scenarios", "3", "-seed", "5"}},
		{name: "-no-baseline", args: []string{"-scenarios", "3", "-no-baseline"}, differs: []string{"-scenarios", "3"}},
		{name: "drift-nodes without -k", args: []string{"-drift", "3", "-drift-nodes", "0.5"}, wantErr: "-drift-nodes needs -k"},
		{name: "unknown workload", args: []string{"-workload", "nope"}, wantErr: `unknown workload "nope"`},
		{name: "-p above 1", args: []string{"-scenarios", "2", "-p", "2"}, wantErr: "-p: scenario: presence probability 2 outside (0,1]"},
		{name: "-p zero", args: []string{"-drift", "3", "-p", "0"}, wantErr: "presence probability 0 outside"},
		{name: "-scenarios negative", args: []string{"-scenarios", "-2"}, wantErr: "-scenarios: scenario: scenario count -2 is negative"},
		{name: "-drift negative", args: []string{"-drift", "-2"}, wantErr: "-drift: scenario: scenario count -2 is negative"},
		{name: "no room to walk", args: []string{"-drift", "4", "-drift-nodes", "1", "-k", "3", "-min-k", "3", "-max-k", "3"}, wantErr: "needs room to walk"},
		{name: "start above -max-k", args: []string{"-drift", "4", "-drift-nodes", "1", "-k", "5", "-max-k", "4"}, wantErr: "-k 5 outside"},
		{name: "start below -min-k", args: []string{"-drift", "4", "-drift-nodes", "1", "-k", "2", "-min-k", "3"}, wantErr: "-k 2 outside"},
		{name: "-drift-deltas zero", args: []string{"-drift", "3", "-drift-deltas", "0"}, wantErr: "-drift-deltas: 0 deltas per update"},
		{name: "-drift-max zero", args: []string{"-drift", "3", "-drift-max", "0"}, wantErr: "-drift-max: 0 is not"},
		{name: "-drift-max NaN", args: []string{"-drift", "3", "-drift-max", "NaN"}, wantErr: "-drift-max: NaN is not"},
		{name: "-drift-max Inf", args: []string{"-drift", "3", "-drift-max", "Inf"}, wantErr: "-drift-max: +Inf is not"},
		{name: "-drift-observe above 1", args: []string{"-drift", "3", "-drift-observe", "1.5"}, wantErr: "-drift-observe: probability 1.5 outside [0,1]"},
		{name: "-drift-observe NaN", args: []string{"-drift", "3", "-drift-observe", "NaN"}, wantErr: "-drift-observe: probability NaN outside"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := emit(tc.args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || got != "" {
					t.Fatalf("err %v with %d bytes of output, want an error containing %q and none", err, len(got), tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, ref := range []struct {
				args []string
				same bool
			}{{tc.same, true}, {tc.differs, false}} {
				if ref.args == nil {
					continue
				}
				want, err := emit(ref.args)
				if err != nil {
					t.Fatal(err)
				}
				if (got == want) != ref.same {
					t.Errorf("output equals that of %q: %v, want %v", ref.args, got == want, ref.same)
				}
			}
		})
	}
}

// TestDriftObserveZero checks that -drift-observe 0 emits a stream with no
// observed scenario, where it used to be rewritten to the default 0.2, and
// that the default still observes some.
func TestDriftObserveZero(t *testing.T) {
	observed := func(args ...string) int {
		var out bytes.Buffer
		if err := run(append([]string{"-workload", "tpcds", "-drift", "50"}, args...), &out); err != nil {
			t.Fatal(err)
		}
		var updates []service.Update
		if err := json.Unmarshal(out.Bytes(), &updates); err != nil {
			t.Fatal(err)
		}
		if len(updates) != 50 {
			t.Fatalf("%q: %d updates, want 50", args, len(updates))
		}
		n := 0
		for _, u := range updates {
			n += len(u.Observe)
		}
		return n
	}
	if n := observed("-drift-observe", "0"); n != 0 {
		t.Errorf("-drift-observe 0 emitted %d observed scenarios, want none", n)
	}
	if n := observed(); n == 0 {
		t.Error("the default -drift-observe emitted no observed scenario")
	}
}

// TestBadFlagExitsOne checks that an unknown or malformed flag ends in one
// line naming it and exit 1, where it used to print the usage and exit 2.
func TestBadFlagExitsOne(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-k", "four"}} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, os.Args[0], append([]string{"workloadgen"}, args...)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.HasPrefix(string(out), "workloadgen: ") ||
			!strings.Contains(string(out), args[0]) || strings.Count(string(out), "\n") != 1 {
			t.Errorf("%q: %v, output %q; want exit 1 and one line naming %s", args, err, out, args[0])
		}
	}
}

// TestHelpOutput checks that -h, run under the command's own name, exits 0
// and prints the usage recorded in testdata/help.txt byte for byte.
func TestHelpOutput(t *testing.T) {
	cmd := exec.Command(os.Args[0], "workloadgen", "-h")
	cmd.Args[0] = "workloadgen"
	out, err := cmd.CombinedOutput()
	want, rerr := os.ReadFile(filepath.Join("testdata", "help.txt"))
	if err != nil || rerr != nil || !bytes.Equal(out, want) {
		t.Errorf("-h: %v, %v, output:\n%s\nwant exit 0 and testdata/help.txt:\n%s", err, rerr, out, want)
	}
}
