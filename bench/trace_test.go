package main

import (
	"testing"
	"time"
)

// Self time is the span minus the union of its direct children, clipped to
// the span: overlapping children count once, a child running past its
// parent only counts up to the parent's end, and grandchildren belong to
// their own parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "op", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "a", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{ID: 3, Name: "c", Start: 90, End: 120, Parent: 0}, // runs past op
		{ID: 4, Name: "a.inner", Start: 12, End: 18, Parent: 1},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{0: 50, 1: 14, 2: 30, 3: 30, 4: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["op"] != 50 || byName["a"] != 14 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestNilTracerIsTheUntracedRun(t *testing.T) {
	var tr *tracer
	id := tr.begin(1, "op", -1)
	ran := false
	d := tr.call(1, "layer.call", id, func() { ran = true })
	tr.end(id)
	if !ran || d < 0 || id != -1 || tr.snapshot() != nil {
		t.Fatalf("nil tracer: ran=%v d=%v id=%d", ran, d, id)
	}
}

func TestTracerRecordsParentAndOp(t *testing.T) {
	tr := newTracer()
	op := tr.begin(7, "op", -1)
	tr.call(7, "core.allocate", op, func() {})
	tr.end(op)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	child := spans[1]
	if child.Parent != op || child.OpID != 7 || child.Name != "core.allocate" || child.End < child.Start {
		t.Errorf("child span = %+v", child)
	}
	if spans[0].End < child.End {
		t.Errorf("op span %+v ends before its child %+v", spans[0], child)
	}
}
