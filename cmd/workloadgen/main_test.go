package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun checks that -seed selects the generator seed of the workload the
// tool writes — a seed other than the workload's canonical one writes a
// different workload, the canonical seed the default one — and that a bad
// flag combination is returned as an error rather than exiting.
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
		{name: "drift-nodes without -k", args: []string{"-drift", "3", "-drift-nodes", "0.5"}, wantErr: "-drift-nodes needs -k"},
		{name: "unknown workload", args: []string{"-workload", "nope"}, wantErr: `unknown workload "nope"`},
		{name: "-p above 1", args: []string{"-scenarios", "2", "-p", "2"}, wantErr: "-p: scenario: presence probability 2 outside (0,1]"},
		{name: "-p zero", args: []string{"-drift", "3", "-p", "0"}, wantErr: "presence probability 0 outside"},
		{name: "-scenarios negative", args: []string{"-scenarios", "-2"}, wantErr: "-scenarios: scenario: scenario count -2 is negative"},
		{name: "-drift negative", args: []string{"-drift", "-2"}, wantErr: "-drift: scenario: scenario count -2 is negative"},
		{name: "no room to walk", args: []string{"-drift", "4", "-drift-nodes", "1", "-k", "3", "-min-k", "3", "-max-k", "3"}, wantErr: "needs room to walk"},
		{name: "start above -max-k", args: []string{"-drift", "4", "-drift-nodes", "1", "-k", "5", "-max-k", "4"}, wantErr: "-k 5 outside"},
		{name: "start below -min-k", args: []string{"-drift", "4", "-drift-nodes", "1", "-k", "2", "-min-k", "3"}, wantErr: "-k 2 outside"},
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
