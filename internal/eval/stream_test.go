package eval

import (
	"math"
	"math/rand"
	"testing"

	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

// randomScenarioSet builds S random frequency vectors over w's queries with
// activity probability p.
func randomScenarioSet(rng *rand.Rand, w *model.Workload, s int, p float64) *model.ScenarioSet {
	ss := &model.ScenarioSet{Frequencies: make([][]float64, s)}
	for i := range ss.Frequencies {
		freq := make([]float64, len(w.Queries))
		for j := range freq {
			if rng.Float64() < p {
				freq[j] = rng.Float64() * 2
			}
		}
		freq[rng.Intn(len(freq))] = 1 // ensure load
		ss.Frequencies[i] = freq
	}
	return ss
}

// TestEvaluatorMatchesOneShot: the reusable Evaluator must agree with the
// one-shot wrapper call after call, including after many intervening
// scenarios — results are a pure function of the frequency vector — on the
// closed form and on the flow search.
func TestEvaluatorMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, k := range []int{4, cutMaxK + 2} {
		w := randomWorkload(rng, 10, 14)
		alloc := randomAllocation(rng, w, k)
		ss := randomScenarioSet(rng, w, 40, 0.7)
		e := NewEvaluator(w, alloc, 1e-9)
		for s, freq := range ss.Frequencies {
			got, err := e.WorstLoad(freq)
			if err != nil {
				t.Fatal(err)
			}
			want, err := WorstLoadFlow(w, alloc, freq, 1e-9)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("K=%d scenario %d: reused evaluator %.12f vs fresh %.12f", k, s, got, want)
			}
		}
	}
}

// TestNewtonMatchesBisect cross-checks the parametric Newton search, which
// WorstLoad runs above cutMaxK nodes, against the reference bisection on the
// same Evaluator: both bracket the same quasi-feasibility frontier, so they
// agree to within a few tolerances.
func TestNewtonMatchesBisect(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		w := randomWorkload(rng, 4+rng.Intn(12), 3+rng.Intn(14))
		alloc := randomAllocation(rng, w, cutMaxK+1+rng.Intn(4))
		ss := randomScenarioSet(rng, w, 5, 0.7)
		e := NewEvaluator(w, alloc, 1e-9)
		for s, freq := range ss.Frequencies {
			newton, err := e.WorstLoad(freq)
			if err != nil {
				t.Fatal(err)
			}
			bisect, err := e.worstLoadBisect(freq)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(newton, 1) != math.IsInf(bisect, 1) {
				t.Fatalf("trial %d scenario %d: newton %v vs bisect %v", trial, s, newton, bisect)
			}
			if !math.IsInf(newton, 1) && math.Abs(newton-bisect) > 1e-6 {
				t.Fatalf("trial %d scenario %d: newton %.12f vs bisect %.12f", trial, s, newton, bisect)
			}
		}
	}
}

// TestEvaluateStreamBitIdentical: aggregates must not depend on the worker
// count — the determinism contract of the streaming driver — on the closed
// form and on the flow search.
func TestEvaluateStreamBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, k := range []int{5, cutMaxK + 3} {
		w := randomWorkload(rng, 12, 18)
		alloc := randomAllocation(rng, w, k)
		ss := randomScenarioSet(rng, w, 64, 0.6)
		base, err := EvaluateStream(w, alloc, ss, StreamOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 3, 8, 64} {
			m, err := EvaluateStream(w, alloc, ss, StreamOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if m.MeanL != base.MeanL || m.MeanGap != base.MeanGap || m.MeanThroughput != base.MeanThroughput || m.Unservable != base.Unservable {
				t.Fatalf("K=%d parallelism %d: aggregates differ from serial run", k, par)
			}
			for s := range m.L {
				if m.L[s] != base.L[s] {
					t.Fatalf("K=%d parallelism %d: L[%d] = %.12f vs %.12f", k, par, s, m.L[s], base.L[s])
				}
			}
		}
	}
}

// TestEvaluateStreamWeighted: weights act as multiplicities — duplicating a
// scenario in an unweighted set matches weighting it in the reduced one.
func TestEvaluateStreamWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	w := randomWorkload(rng, 8, 10)
	alloc := randomAllocation(rng, w, 3)
	ss := randomScenarioSet(rng, w, 3, 0.8)
	weighted := ss.Clone()
	weighted.Weights = []float64{3, 1, 2}
	expanded := &model.ScenarioSet{}
	for s, wt := range weighted.Weights {
		for c := 0; c < int(wt); c++ {
			expanded.Frequencies = append(expanded.Frequencies, ss.Frequencies[s])
		}
	}
	mw, err := EvaluateStream(w, alloc, weighted, StreamOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	me, err := EvaluateStream(w, alloc, expanded, StreamOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mw.MeanL-me.MeanL) > 1e-12 || math.Abs(mw.MeanThroughput-me.MeanThroughput) > 1e-12 {
		t.Fatalf("weighted (%.12f, %.12f) vs expanded (%.12f, %.12f)",
			mw.MeanL, mw.MeanThroughput, me.MeanL, me.MeanThroughput)
	}
}

// TestEvaluateStreamUnservable: scenarios no node can serve count toward
// Unservable and zero throughput at every parallelism level.
func TestEvaluateStreamUnservable(t *testing.T) {
	w := &model.Workload{
		Fragments: []model.Fragment{{ID: 0, Size: 1}, {ID: 1, Size: 1}},
		Queries: []model.Query{
			{ID: 0, Fragments: []int{0}, Cost: 1, Frequency: 1},
			{ID: 1, Fragments: []int{1}, Cost: 1, Frequency: 1},
		},
	}
	alloc := model.NewAllocation(2)
	alloc.AddFragment(0, 0)
	alloc.AddFragment(1, 0) // fragment 1 is stored nowhere
	ss := &model.ScenarioSet{Frequencies: [][]float64{
		{1, 0}, // servable
		{1, 1}, // needs fragment 1: unservable
	}}
	for _, par := range []int{1, 2} {
		m, err := EvaluateStream(w, alloc, ss, StreamOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if m.Unservable != 1 || !math.IsInf(m.L[1], 1) {
			t.Fatalf("parallelism %d: unservable %d, L[1] %v", par, m.Unservable, m.L[1])
		}
		if math.Abs(m.MeanThroughput-0.5) > 1e-9 { // scenario 0 balances perfectly (1), scenario 1 contributes 0, over 2
			t.Fatalf("parallelism %d: throughput %g", par, m.MeanThroughput)
		}
	}
}

// TestStreamMatchesLPSweep is the |S|=400 LP-vs-maxflow agreement sweep; run
// under -race it also exercises the pool for data races. -short trims it.
func TestStreamMatchesLPSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	w := randomWorkload(rng, 10, 16)
	alloc := randomAllocation(rng, w, 4)
	s := 400
	if testing.Short() {
		s = 40
	}
	ss := randomScenarioSet(rng, w, s, 0.6)
	m, err := EvaluateStream(w, alloc, ss, StreamOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	// LP-check a deterministic sample of the sweep (the LP is the slow side).
	for s := 0; s < len(m.L); s += 13 {
		lp, err := WorstLoadLP(w, alloc, ss.Frequencies[s])
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(lp, 1) != math.IsInf(m.L[s], 1) {
			t.Fatalf("scenario %d: LP %v vs flow %v", s, lp, m.L[s])
		}
		if !math.IsInf(lp, 1) && math.Abs(lp-m.L[s]) > 1e-6 {
			t.Fatalf("scenario %d: LP %.9f vs flow %.9f", s, lp, m.L[s])
		}
	}
}

// TestEvaluatorZeroAlloc asserts the streaming hot path allocates nothing
// per scenario once the Evaluator is warm, on the closed form and on the
// flow search.
func TestEvaluatorZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, k := range []int{4, cutMaxK + 2} {
		w := randomWorkload(rng, 12, 20)
		alloc := randomAllocation(rng, w, k)
		ss := randomScenarioSet(rng, w, 8, 0.7)
		e := NewEvaluator(w, alloc, 1e-9)
		for _, freq := range ss.Frequencies { // warm the graph scratch
			if _, err := e.WorstLoad(freq); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			_, err := e.WorstLoad(ss.Frequencies[i%len(ss.Frequencies)])
			if err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("K=%d: WorstLoad allocates %.1f times per scenario, want 0", k, allocs)
		}
	}
}

// TestEvaluateReducedWithinRadius ties the evaluator to the reduction: for a
// shared allocation, each member scenario's L̃ stays within its cluster's
// deviation bound of the representative's L̃.
func TestEvaluateReducedWithinRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	w := randomWorkload(rng, 10, 14)
	k := 4
	// Full replication serves everything, so the bound's "serves both"
	// premise holds for every pair.
	alloc := model.NewAllocation(k)
	for node := 0; node < k; node++ {
		for i := range w.Fragments {
			alloc.AddFragment(node, i)
		}
	}
	ss := randomScenarioSet(rng, w, 60, 0.6)
	red, err := scenario.Reduce(w, ss, scenario.ReduceConfig{R: 6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(w, alloc, 1e-9)
	for c := range red.Medoids {
		repL, err := e.WorstLoad(red.Reduced.Frequencies[c])
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range red.Members[c] {
			memL, err := e.WorstLoad(ss.Frequencies[s])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(memL-repL) > red.Radius[c]+1e-6 {
				t.Fatalf("cluster %d member %d: |%.9f − %.9f| exceeds radius %.9f",
					c, s, memL, repL, red.Radius[c])
			}
		}
	}
}
