package main

import "testing"

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
		{"mip: node %d depth %d obj=%.6f iters=%d", true},
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
