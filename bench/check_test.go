package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"fragalloc/internal/core"
	"fragalloc/internal/eval"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/service"
)

// tinyWorkload is small enough to solve exactly in milliseconds and
// irregular enough that both nodes end up with different fragments.
func tinyWorkload() *model.Workload {
	w := &model.Workload{Name: "tiny"}
	for i, size := range []float64{10, 20, 30, 40, 50, 60} {
		w.Fragments = append(w.Fragments, model.Fragment{ID: i, Size: size})
	}
	for j, frags := range [][]int{{0, 1}, {1, 2}, {3}, {4, 5}, {0, 5}, {2, 3}} {
		w.Queries = append(w.Queries, model.Query{ID: j, Fragments: frags, Cost: float64(j + 1), Frequency: 1})
	}
	return w
}

func solveTiny(t *testing.T) (*model.Workload, *model.ScenarioSet, *core.Result, []byte) {
	t.Helper()
	w := tinyWorkload()
	ss := model.DefaultScenario(w)
	res, err := core.Allocate(w, ss, 2, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(res.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	return w, ss, res, js
}

func wantFailure(t *testing.T, err error, about string) {
	t.Helper()
	if err == nil {
		t.Fatalf("checker accepted an output with %s", about)
	}
	t.Logf("rejected as expected: %v", err)
}

func TestCheckerAcceptsACorrectAllocation(t *testing.T) {
	w, ss, res, js := solveTiny(t)
	if err := checkAllocation(w, ss, ss, 2, js, res, 1); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsADroppedFragment(t *testing.T) {
	w, ss, res, js := solveTiny(t)
	a, err := decodeAllocation(js)
	if err != nil {
		t.Fatal(err)
	}
	// Take a fragment away from a node that the certified routing sends a
	// query to: the query can no longer run where its share says it does.
	dropped := false
	for j, q := range w.Queries {
		for k, share := range a.Shares[0][j] {
			if share > 0 && !dropped {
				frags := a.Fragments[k]
				for i, f := range frags {
					if f == q.Fragments[0] {
						a.Fragments[k] = append(append([]int(nil), frags[:i]...), frags[i+1:]...)
						dropped = true
					}
				}
			}
		}
	}
	if !dropped {
		t.Fatal("found no routed query to break")
	}
	broken, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	wantFailure(t, checkAllocation(w, ss, ss, 2, broken, res, 1), "a needed fragment dropped")
}

func TestCheckerRejectsAWrongW(t *testing.T) {
	w, ss, res, js := solveTiny(t)
	wrong := *res
	wrong.W += w.Fragments[0].Size
	wantFailure(t, checkAllocation(w, ss, ss, 2, js, &wrong, 1), "a W that disagrees with the fragment sizes")
}

func TestCheckerRejectsADiffThatDoesNotRoundTrip(t *testing.T) {
	w, _, res, _ := solveTiny(t)
	old := model.NewAllocation(2)
	for i := range w.Fragments {
		old.AddFragment(0, i)
	}
	diff, err := service.ComputeDiff(w, old, res.Allocation, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDiff(old, res.Allocation, diff); err != nil {
		t.Fatalf("the untouched plan must round-trip: %v", err)
	}
	tampered := false
	for i := range diff.Nodes {
		if n := len(diff.Nodes[i].Copy); n > 0 {
			diff.Nodes[i].Copy = diff.Nodes[i].Copy[:n-1]
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("plan copies nothing; nothing to tamper with")
	}
	wantFailure(t, checkDiff(old, res.Allocation, diff), "a migration plan that misses a copy")
}

func TestCheckRepeatIsBitExact(t *testing.T) {
	op := func(rf, gap float64, js string) *solved {
		return &solved{res: &core.Result{ReplicationFactor: rf}, js: []byte(js), metrics: &eval.Metrics{MeanGap: gap}}
	}
	first := op(2.025, 0.02, "x")
	if err := checkRepeat(first, op(2.025, 0.02, "x")); err != nil {
		t.Fatal(err)
	}
	wantFailure(t, checkRepeat(first, op(math.Nextafter(2.025, 3), 0.02, "x")), "a W/V one ulp off")
	wantFailure(t, checkRepeat(first, op(2.025, 0.02, "y")), "different allocation bytes")
	wantFailure(t, checkRepeat(first, op(2.025, math.Nextafter(0.02, 1), "x")), "a robust gap one ulp off")
}

// A wrong output is a failed operation: it is counted in fail_share and
// contributes no latency. The reference workload the checker holds is made
// to disagree with the files the solver read, so every operation's W is
// wrong.
func TestWrongOutputIsAFailedOperation(t *testing.T) {
	sp := spec{
		name: "negative", kind: kindBatch, generator: "tpcds", k: 2,
		mip: mip.Options{MaxNodes: 1}, observed: 1,
	}
	cfg := runConfig{seed: 1, evalSeed: 1, ops: 2, root: t.TempDir()}
	in, err := setUp(sp, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.w.Fragments {
		in.w.Fragments[i].Size *= 2
	}
	rep := &report{Workload: sp.name}
	if err := rep.runBatch(sp, in, cfg, nil, nil, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 2 || rep.Failed != 2 {
		t.Fatalf("attempted %d, failed %d; want 2 and 2", rep.Attempted, rep.Failed)
	}
	if _, ok := rep.EndToEnd.get("solve_s"); ok {
		t.Error("a failed operation contributed a latency")
	}
	if len(rep.Failures) == 0 || !strings.Contains(rep.Failures[0], "disagrees with fragment sizes") {
		t.Errorf("failure reasons = %q", rep.Failures)
	}
}
