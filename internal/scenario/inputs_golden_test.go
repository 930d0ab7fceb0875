package scenario

import (
	"math"
	"path/filepath"
	"testing"

	"fragalloc/internal/accounting"
	"fragalloc/internal/model"
	"fragalloc/internal/tpcds"
)

// TestInputsGolden pins what the benchmark's set-up produces before any
// solver sees it: the digests of the two generated workloads and of the
// scenario sets drawn at seed 1 (TPC-DS: 400 in-sample, 10 000 out-of-sample
// at seed 1001; accounting: 200 out-of-sample at seed 1001), and a SaveJSON →
// LoadWorkload / LoadScenarioSet round trip that must give back every float
// bit. A change that makes generating, sampling or persisting cheaper leaves
// all of it alone. The generator digests carry ROADMAP item 7's caveat, as
// TestPipelineGolden's do: math.Exp and math.Pow branch on the CPU's FMA
// support, so they hold on the amd64 hosts with FMA they were recorded on.
// The sampler calls neither, so given a workload the scenario digests do
// not depend on the CPU.
func TestInputsGolden(t *testing.T) {
	acct, tp := accounting.Workload(), tpcds.Workload()
	tpIn := InSample(tp, 400, DefaultP, 1)
	sets := []struct {
		name string
		ss   *model.ScenarioSet
		want uint64
	}{
		{"tpcds in-sample 400", tpIn, 0x9303d73b996082a7},
		{"tpcds out-of-sample 10000", OutOfSample(tp, 10000, DefaultP, 1001), 0xc09071d4c73c9994},
		{"accounting out-of-sample 200", OutOfSample(acct, 200, DefaultP, 1001), 0xffc5ef437ba8881f},
	}
	for _, c := range []struct {
		name string
		w    *model.Workload
		want uint64
	}{{"accounting", acct, 0xa437e010339f0fd4}, {"tpcds", tp, 0xb358eaafd7f15c98}} {
		if got := c.w.Digest(); got != c.want {
			t.Errorf("%s workload digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
	for _, c := range sets {
		if got := c.ss.Digest(); got != c.want {
			t.Errorf("%s digest %#016x, want %#016x", c.name, got, c.want)
		}
	}

	// The round trip covers what the benchmark persists (both workloads,
	// the TPC-DS in-sample set) and one out-of-sample set.
	dir := t.TempDir()
	for _, w := range []*model.Workload{acct, tp} {
		path := filepath.Join(dir, w.Name+".json")
		if err := model.SaveJSON(path, w); err != nil {
			t.Fatal(err)
		}
		back, err := model.LoadWorkload(path)
		if err != nil {
			t.Fatal(err)
		}
		sameWorkloadBits(t, w, back)
	}
	for _, ss := range []*model.ScenarioSet{tpIn, sets[2].ss} {
		path := filepath.Join(dir, "scenarios.json")
		if err := model.SaveJSON(path, ss); err != nil {
			t.Fatal(err)
		}
		back, err := model.LoadScenarioSet(path)
		if err != nil {
			t.Fatal(err)
		}
		sameScenarioBits(t, ss, back)
	}
}

func sameWorkloadBits(t *testing.T, want, got *model.Workload) {
	t.Helper()
	if len(got.Fragments) != len(want.Fragments) || len(got.Queries) != len(want.Queries) {
		t.Fatalf("%s: %d fragments and %d queries back, want %d and %d",
			want.Name, len(got.Fragments), len(got.Queries), len(want.Fragments), len(want.Queries))
	}
	for i, f := range want.Fragments {
		if g := got.Fragments[i]; g.ID != f.ID || g.Name != f.Name || math.Float64bits(g.Size) != math.Float64bits(f.Size) {
			t.Fatalf("%s: fragment %d back as %+v, want %+v", want.Name, i, g, f)
		}
	}
	for j, q := range want.Queries {
		g := got.Queries[j]
		if g.ID != q.ID || g.Name != q.Name || len(g.Fragments) != len(q.Fragments) ||
			math.Float64bits(g.Cost) != math.Float64bits(q.Cost) ||
			math.Float64bits(g.Frequency) != math.Float64bits(q.Frequency) {
			t.Fatalf("%s: query %d back as %+v, want %+v", want.Name, j, g, q)
		}
		for k, i := range q.Fragments {
			if g.Fragments[k] != i {
				t.Fatalf("%s: query %d fragments back as %v, want %v", want.Name, j, g.Fragments, q.Fragments)
			}
		}
	}
}

func sameScenarioBits(t *testing.T, want, got *model.ScenarioSet) {
	t.Helper()
	if len(got.Frequencies) != len(want.Frequencies) || len(got.Weights) != len(want.Weights) {
		t.Fatalf("%d scenarios and %d weights back, want %d and %d",
			len(got.Frequencies), len(got.Weights), len(want.Frequencies), len(want.Weights))
	}
	for s, freq := range want.Frequencies {
		if len(got.Frequencies[s]) != len(freq) {
			t.Fatalf("scenario %d: %d frequencies back, want %d", s, len(got.Frequencies[s]), len(freq))
		}
		for j, f := range freq {
			if g := got.Frequencies[s][j]; math.Float64bits(g) != math.Float64bits(f) {
				t.Fatalf("scenario %d query %d: %v back, want %v", s, j, g, f)
			}
		}
	}
	for s, wt := range want.Weights {
		if g := got.Weights[s]; math.Float64bits(g) != math.Float64bits(wt) {
			t.Fatalf("weight %d: %v back, want %v", s, g, wt)
		}
	}
}
