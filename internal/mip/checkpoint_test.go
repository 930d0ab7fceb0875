package mip

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"fragalloc/internal/simplex"
)

// ckptProblem builds a deterministic random binary problem large enough that
// branch and bound expands multiple nodes and finds an incumbent before the
// search closes, so per-node checkpoints observe meaningful state.
func ckptProblem(seed int64, nb int) (*simplex.Problem, []int) {
	rng := rand.New(rand.NewSource(seed))
	p := &simplex.Problem{}
	for j := 0; j < nb; j++ {
		p.AddVar(0, 1, math.Round((rng.Float64()*10-5)*4)/4)
	}
	for r := 0; r < nb/2; r++ {
		var idx []int
		var coef []float64
		for j := 0; j < nb; j++ {
			if rng.Intn(2) == 0 {
				idx = append(idx, j)
				coef = append(coef, math.Round((rng.Float64()*6-2)*4)/4)
			}
		}
		if idx == nil {
			continue
		}
		rel := []simplex.Relation{simplex.LE, simplex.GE}[rng.Intn(2)]
		p.AddRow(idx, coef, rel, math.Round((rng.Float64()*4-1)*4)/4)
	}
	intVars := make([]int, nb)
	for j := range intVars {
		intVars[j] = j
	}
	return p, intVars
}

// TestCheckpointObservationIsPure solves the same problem with and without a
// Checkpoint callback and requires bit-identical results: checkpointing is
// observation, never perturbation. It also validates every observed snapshot
// against the search invariants.
func TestCheckpointObservationIsPure(t *testing.T) {
	p, intVars := ckptProblem(8, 16)
	base, err := Solve(p, intVars, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var snaps []Snapshot
	observed, err := Solve(p, intVars, Options{
		CheckpointEvery: time.Nanosecond, // fire at every node-loop head
		Checkpoint:      func(s Snapshot) { snaps = append(snaps, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	//fragvet:ignore floatcmp — resume contract: a replayed incumbent must match the original bit-for-bit
	if base.Status != observed.Status || base.Obj != observed.Obj ||
		//fragvet:ignore floatcmp — resume contract: a replayed incumbent must match the original bit-for-bit
		base.Bound != observed.Bound || base.Nodes != observed.Nodes ||
		!reflect.DeepEqual(base.X, observed.X) {
		t.Errorf("checkpoint callback perturbed the search:\n base %+v\n with %+v", base, observed)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots observed with CheckpointEvery=1ns on a multi-node search")
	}
	sawIncumbent := false
	for i, s := range snaps {
		if !s.HasIncumbent {
			if s.X != nil {
				t.Errorf("snapshot %d: X set without HasIncumbent", i)
			}
			continue
		}
		sawIncumbent = true
		if len(s.X) != p.NumVars {
			t.Fatalf("snapshot %d: len(X) = %d, want NumVars %d", i, len(s.X), p.NumVars)
		}
		var obj float64
		for j, v := range s.X {
			obj += p.Obj[j] * v
		}
		if math.Abs(obj-s.Obj) > 1e-6 {
			t.Errorf("snapshot %d: Obj %g inconsistent with X (recomputed %g)", i, s.Obj, obj)
		}
	}
	if !sawIncumbent {
		t.Error("no snapshot carried an incumbent; the kill-point journal would be empty")
	}

	// Snapshots are copies: mutating one must not corrupt a later result.
	for _, s := range snaps {
		for j := range s.X {
			s.X[j] = -1
		}
	}
	again, err := Solve(p, intVars, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.X, again.X) {
		t.Error("mutating snapshot X changed a later solve (aliasing)")
	}
}

// TestCheckpointWarmResume replays a mid-search snapshot's incumbent as a
// starting proposal — the warm path a resumed run takes — and checks the
// restarted search accepts it and still proves the same optimum.
func TestCheckpointWarmResume(t *testing.T) {
	p, intVars := ckptProblem(8, 16)
	var warm []float64
	_, err := Solve(p, intVars, Options{
		CheckpointEvery: time.Nanosecond,
		Checkpoint: func(s Snapshot) {
			if s.HasIncumbent && warm == nil {
				warm = append([]float64(nil), s.X...)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm == nil {
		t.Fatal("no incumbent snapshot to warm-resume from")
	}
	base, err := Solve(p, intVars, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Solve(p, intVars, Options{Starts: [][]float64{warm}})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Status != base.Status || math.Abs(resumed.Obj-base.Obj) > 1e-6 {
		t.Errorf("warm resume: status %v obj %g, want %v obj %g",
			resumed.Status, resumed.Obj, base.Status, base.Obj)
	}
}
