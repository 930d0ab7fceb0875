package faultinject

import (
	"sync"
	"testing"
)

func TestPlanIndices(t *testing.T) {
	in := New(Plan{RefactorFailures: []int{0, 2}, Stalls: []int{1}})
	wantRefactor := []bool{true, false, true, false}
	for i, want := range wantRefactor {
		if got := in.FailRefactor(); got != want {
			t.Errorf("FailRefactor call %d = %v, want %v", i, got, want)
		}
	}
	wantStall := []bool{false, true, false}
	for i, want := range wantStall {
		if got := in.ForceStall(); got != want {
			t.Errorf("ForceStall call %d = %v, want %v", i, got, want)
		}
	}
	if in.refactors != 4 || in.stalls != 3 || in.cancels != 0 {
		t.Errorf("counts = (%d, %d, %d), want (4, 3, 0)", in.refactors, in.stalls, in.cancels)
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := New(Plan{})
	for i := 0; i < 100; i++ {
		if in.FailRefactor() || in.ForceStall() || in.Canceled() {
			t.Fatalf("zero plan fired at call %d", i)
		}
	}
	if in.RefactorEvery() != 0 {
		t.Errorf("zero plan asks for refactorization cadence %d, want the solver's default (0)", in.RefactorEvery())
	}
}

func TestCancelAfter(t *testing.T) {
	in := New(Plan{CancelAfter: 3})
	want := []bool{false, false, true, true}
	for i, w := range want {
		if got := in.Canceled(); got != w {
			t.Errorf("Canceled call %d = %v, want %v", i, got, w)
		}
	}
	in = New(Plan{CancelAfter: 1})
	if !in.Canceled() {
		t.Error("CancelAfter=1 must cancel immediately")
	}
}

func TestAlways(t *testing.T) {
	in := Always()
	for i := 0; i < 10; i++ {
		if !in.FailRefactor() {
			t.Fatalf("Always().FailRefactor call %d = false", i)
		}
	}
	if in.RefactorEvery() != 1 {
		t.Errorf("Always().RefactorEvery() = %d, want 1: a solve must reach a refactorization to fail it", in.RefactorEvery())
	}
}

func TestSeededDeterminism(t *testing.T) {
	a, b := Seeded(7, 50, 0.3), Seeded(7, 50, 0.3)
	for i := 0; i < 60; i++ {
		if a.FailRefactor() != b.FailRefactor() {
			t.Fatalf("seeded injectors diverge on FailRefactor at call %d", i)
		}
		if a.ForceStall() != b.ForceStall() {
			t.Fatalf("seeded injectors diverge on ForceStall at call %d", i)
		}
	}
	// A different seed must (for this seed pair) give a different plan.
	c := Seeded(8, 50, 0.3)
	diff := false
	fresh := Seeded(7, 50, 0.3)
	for i := 0; i < 50; i++ {
		if c.FailRefactor() != fresh.FailRefactor() {
			diff = true
		}
	}
	if !diff {
		t.Error("seeds 7 and 8 produced identical refactor plans")
	}
}

// TestConcurrentCounters drives one injector from many goroutines; the run
// is meaningful under -race and checks that the total counts add up.
func TestConcurrentCounters(t *testing.T) {
	in := Seeded(1, 100, 0.5)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				in.FailRefactor()
				in.ForceStall()
				in.Canceled()
			}
		}()
	}
	wg.Wait()
	if in.refactors != workers*per || in.stalls != workers*per {
		t.Errorf("counts = (%d, %d), want (%d, %d)", in.refactors, in.stalls, workers*per, workers*per)
	}
}
