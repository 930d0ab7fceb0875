package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the solver are a later change). Start and End are
// nanoseconds since the tracer was created. Spans of one operation share
// OpID; Parent is the ID of the enclosing span, or -1 for an operation's
// root.
type span struct {
	ID     int    `json:"id"`
	OpID   int    `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// tracer holds spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the timed code is the same in
// both runs and the difference between them is the cost of recording.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 when untraced).
func (t *tracer) begin(opID int, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, OpID: opID, Name: name, Start: now, End: now, Parent: parent})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call times fn — always, traced or not — and records it as a span when
// tracing. Every layer boundary in the benchmark goes through here.
func (t *tracer) call(opID int, name string, parent int, fn func()) time.Duration {
	id := t.begin(opID, name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover. Overlapping children (parallel
// calls) are counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, upTo), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName sums self time per span name — the per-layer busy time of the
// run, with the benchmark's own glue showing up under the root span "op".
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
