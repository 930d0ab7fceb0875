package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
	"fragalloc/internal/tpcds"
)

// tpcdsSubset returns the TPC-DS workload truncated to its maxQ heaviest
// queries (IDs renumbered), small enough for budgeted exact group solves.
func tpcdsSubset(maxQ int) *model.Workload {
	w := tpcds.Workload().Clone()
	sort.SliceStable(w.Queries, func(a, b int) bool { return w.Queries[a].Cost > w.Queries[b].Cost })
	w.Queries = w.Queries[:maxQ]
	sort.SliceStable(w.Queries, func(a, b int) bool { return w.Queries[a].ID < w.Queries[b].ID })
	for j := range w.Queries {
		w.Queries[j].ID = j
	}
	w.Name += fmt.Sprintf("-top%d", maxQ)
	return w
}

// TestParallelDeterminism asserts the tentpole guarantee: Allocate with
// Parallelism 1 and 8 produces bit-identical allocations and routing
// shares. The budgets are node counts (never wall-clock), so each
// subproblem solve is deterministic and concurrency can only reorder —
// never change — the per-chunk results.
func TestParallelDeterminism(t *testing.T) {
	w := tpcdsSubset(30)
	seen := scenario.InSample(w, 3, scenario.DefaultP, 1)
	cases := []struct {
		k      int
		chunks string
	}{
		{4, "2+2"},
		{8, "(2+2)+(2+2)"},
	}
	for _, c := range cases {
		spec, err := ParseChunks(c.chunks)
		if err != nil {
			t.Fatal(err)
		}
		opts := func(par int) Options {
			return Options{
				Chunks:      spec,
				Parallelism: par,
				MIP:         mip.Options{MaxNodes: 300},
			}
		}
		serial, err := Allocate(w, seen, c.k, opts(1))
		if err != nil {
			t.Fatalf("chunks %s serial: %v", c.chunks, err)
		}
		parallel, err := Allocate(w, seen, c.k, opts(8))
		if err != nil {
			t.Fatalf("chunks %s parallel: %v", c.chunks, err)
		}
		if !reflect.DeepEqual(serial.Allocation.Fragments, parallel.Allocation.Fragments) {
			t.Errorf("chunks %s: fragment placement differs between Parallelism 1 and 8", c.chunks)
		}
		if !reflect.DeepEqual(serial.Allocation.Shares, parallel.Allocation.Shares) {
			t.Errorf("chunks %s: routing shares differ between Parallelism 1 and 8", c.chunks)
		}
		if serial.W != parallel.W || serial.BBNodes != parallel.BBNodes ||
			serial.MaxGap != parallel.MaxGap || serial.MaxLoad != parallel.MaxLoad ||
			serial.Exact != parallel.Exact {
			t.Errorf("chunks %s: solve statistics differ: serial {W:%v nodes:%d gap:%v load:%v exact:%v} parallel {W:%v nodes:%d gap:%v load:%v exact:%v}",
				c.chunks,
				serial.W, serial.BBNodes, serial.MaxGap, serial.MaxLoad, serial.Exact,
				parallel.W, parallel.BBNodes, parallel.MaxGap, parallel.MaxLoad, parallel.Exact)
		}
	}
}

// TestParallelHintDeterminism covers the hint pre-solve fan-out: flat
// groups with B >= 3 run a hierarchical pre-solve (sharing the worker
// pool via a cloned subproblem), and the flat root solve adds the greedy
// start concurrently. Results must not depend on the worker count.
func TestParallelHintDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := randomWorkload(rng, 24, 18)
	spec, err := ParseChunks("4+4")
	if err != nil {
		t.Fatal(err)
	}
	opts := func(par int) Options {
		return Options{Chunks: spec, Parallelism: par, MIP: mip.Options{MaxNodes: 200}}
	}
	serial, err := Allocate(w, nil, 8, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Allocate(w, nil, 8, opts(6))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Allocation.Fragments, parallel.Allocation.Fragments) {
		t.Error("fragment placement differs with hint pre-solves in the pool")
	}
	if !reflect.DeepEqual(serial.Allocation.Shares, parallel.Allocation.Shares) {
		t.Error("routing shares differ with hint pre-solves in the pool")
	}
}

// TestParallelRaceSmoke exercises every concurrent code path — sibling
// chunk fan-out, nested splits, hint pre-solves, partial clustering, and
// logging — with more workers than groups, so `go test -race` patrols the
// shared driver state. Two Allocate calls also run concurrently with each
// other to cover cross-driver isolation.
func TestParallelRaceSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := randomWorkload(rng, 28, 24)
	spec, err := ParseChunks("(2+2)+4")
	if err != nil {
		t.Fatal(err)
	}
	run := func(fixed int) error {
		_, err := Allocate(w, nil, 8, Options{
			Chunks:       spec,
			FixedQueries: fixed,
			Parallelism:  8,
			MIP:          mip.Options{MaxNodes: 60},
			Logf:         func(format string, args ...any) { _ = fmt.Sprintf(format, args...) },
		})
		return err
	}
	errc := make(chan error, 2)
	go func() { errc <- run(0) }()
	go func() { errc <- run(4) }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
