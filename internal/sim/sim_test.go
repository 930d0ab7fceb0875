package sim

import (
	"math"
	"math/rand"
	"testing"

	"fragalloc/internal/eval"
	"fragalloc/internal/model"
)

func twoNodeWorkload() (*model.Workload, *model.Allocation) {
	w := &model.Workload{
		Fragments: []model.Fragment{{ID: 0, Size: 1}, {ID: 1, Size: 1}},
		Queries: []model.Query{
			{ID: 0, Fragments: []int{0}, Cost: 1, Frequency: 1},
			{ID: 1, Fragments: []int{1}, Cost: 1, Frequency: 1},
		},
	}
	a := model.NewAllocation(2)
	a.AddFragment(0, 0)
	a.AddFragment(1, 1)
	return w, a
}

func TestDisjointPerfectBalance(t *testing.T) {
	w, a := twoNodeWorkload()
	res, err := Run(w, a, []float64{1, 1}, Config{Executions: 200000, Policy: LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaxShare-0.5) > 0.01 {
		t.Errorf("max share %.4f, want ~0.5", res.MaxShare)
	}
	if res.Dropped != 0 {
		t.Errorf("dropped %d, want 0", res.Dropped)
	}
}

func TestUnservableQueriesDropped(t *testing.T) {
	w, a := twoNodeWorkload()
	a.Fragments[1] = nil // fragment 1 nowhere
	res, err := Run(w, a, []float64{1, 1}, Config{Executions: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("expected dropped executions for the unservable query")
	}
}

func TestBadInputs(t *testing.T) {
	w, a := twoNodeWorkload()
	if _, err := Run(w, a, []float64{1}, Config{}); err == nil {
		t.Error("want error for wrong frequency length")
	}
	if _, err := Run(w, a, []float64{-1, 1}, Config{}); err == nil {
		t.Error("want error for negative frequency")
	}
	if _, err := Run(w, a, []float64{0, 0}, Config{}); err == nil {
		t.Error("want error for zero load")
	}
}

func TestDeterministicSeed(t *testing.T) {
	w, a := twoNodeWorkload()
	r1, err := Run(w, a, []float64{2, 1}, Config{Executions: 5000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(w, a, []float64{2, 1}, Config{Executions: 5000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for k := range r1.BusyTime {
		if r1.BusyTime[k] != r2.BusyTime[k] {
			t.Fatal("same seed produced different runs")
		}
	}
}

// randomSetup builds a random workload and an allocation covering it.
func randomSetup(rng *rand.Rand) (*model.Workload, *model.Allocation, []float64) {
	n, q, k := 6+rng.Intn(10), 5+rng.Intn(10), 2+rng.Intn(3)
	w := &model.Workload{}
	for i := 0; i < n; i++ {
		w.Fragments = append(w.Fragments, model.Fragment{ID: i, Size: 1 + rng.Float64()*9})
	}
	for j := 0; j < q; j++ {
		nf := 1 + rng.Intn(3)
		seen := map[int]bool{}
		var fr []int
		for len(fr) < nf {
			i := rng.Intn(n)
			if !seen[i] {
				seen[i] = true
				fr = append(fr, i)
			}
		}
		w.Queries = append(w.Queries, model.Query{ID: j, Fragments: fr, Cost: 0.5 + rng.Float64()*4, Frequency: 1})
	}
	w.NormalizeQueryFragments()
	a := model.NewAllocation(k)
	for j := range w.Queries {
		for c := 0; c < 1+rng.Intn(2); c++ {
			node := rng.Intn(k)
			for _, i := range w.Queries[j].Fragments {
				a.AddFragment(node, i)
			}
		}
	}
	freq := make([]float64, q)
	for j := range freq {
		freq[j] = rng.Float64() + 0.05
	}
	return w, a, freq
}

// TestLeastLoadedApproachesAnalytic: with a long stream, the least-loaded
// router cannot beat the analytic optimum L̃ and usually lands close to it.
func TestLeastLoadedApproachesAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		w, a, freq := randomSetup(rng)
		analytic, err := eval.WorstLoadFlow(w, a, freq, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(w, a, freq, Config{Executions: 150000, Policy: LeastLoaded, Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		// The simulated busiest share can never be meaningfully below the
		// analytic optimum (sampling noise aside)...
		if res.MaxShare < analytic-0.02 {
			t.Errorf("trial %d: simulated %.4f below analytic optimum %.4f", trial, res.MaxShare, analytic)
		}
		// ...and least-loaded should get reasonably close to it.
		if res.MaxShare > analytic+0.10 {
			t.Errorf("trial %d: simulated %.4f far above analytic optimum %.4f", trial, res.MaxShare, analytic)
		}
	}
}

func TestCompareCoversPolicies(t *testing.T) {
	w, a := twoNodeWorkload()
	out, err := Compare(w, a, []float64{1, 3}, Config{Executions: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d policies, want 3", len(out))
	}
	for p, r := range out {
		if r.RelativeThroughput <= 0 || r.RelativeThroughput > 1+1e-9 {
			t.Errorf("%v: relative throughput %.4f outside (0,1]", p, r.RelativeThroughput)
		}
	}
}

func TestRoundRobinDisjoint(t *testing.T) {
	w, a := twoNodeWorkload()
	res, err := Run(w, a, []float64{1, 1}, Config{Executions: 50000, Policy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint single-node queries leave round-robin no choice: balance
	// follows the sampled mix.
	if math.Abs(res.MaxShare-0.5) > 0.02 {
		t.Errorf("max share %.4f, want ~0.5", res.MaxShare)
	}
}
