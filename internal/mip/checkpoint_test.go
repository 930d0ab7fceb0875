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
// search closes, so checkpoints observe an incumbent.
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
// observation, never perturbation. It also validates every observed
// incumbent against the search invariants.
func TestCheckpointObservationIsPure(t *testing.T) {
	p, intVars := ckptProblem(8, 16)
	base, err := Solve(p, intVars, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var seen [][]float64
	observed, err := Solve(p, intVars, Options{
		CheckpointEvery: time.Nanosecond, // fire at every clock reading
		Checkpoint:      func(x []float64) { seen = append(seen, x) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Status != observed.Status || base.Obj != observed.Obj ||
		base.Bound != observed.Bound || base.Nodes != observed.Nodes ||
		!reflect.DeepEqual(base.X, observed.X) {
		t.Errorf("checkpoint callback perturbed the search:\n base %+v\n with %+v", base, observed)
	}
	if len(seen) == 0 {
		t.Fatal("no incumbent observed with CheckpointEvery=1ns on a multi-node search")
	}
	for i, x := range seen {
		if len(x) != p.NumVars {
			t.Fatalf("incumbent %d: len = %d, want NumVars %d", i, len(x), p.NumVars)
		}
		for _, j := range intVars {
			if v := x[j]; math.Abs(v-math.Round(v)) > intTol {
				t.Errorf("incumbent %d: integer variable %d is %g", i, j, v)
			}
		}
	}

	// The callback's slices are copies: mutating one must not corrupt a
	// later result.
	for _, x := range seen {
		for j := range x {
			x[j] = -1
		}
	}
	again, err := Solve(p, intVars, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.X, again.X) {
		t.Error("mutating a checkpointed incumbent changed a later solve (aliasing)")
	}
}

// TestCheckpointWarmResume replays a mid-search incumbent as a starting
// proposal and checks the restarted search accepts it and still proves the
// same optimum.
func TestCheckpointWarmResume(t *testing.T) {
	p, intVars := ckptProblem(8, 16)
	var warm []float64
	_, err := Solve(p, intVars, Options{
		CheckpointEvery: time.Nanosecond,
		Checkpoint: func(x []float64) {
			if warm == nil {
				warm = x
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm == nil {
		t.Fatal("no checkpointed incumbent to warm-resume from")
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
