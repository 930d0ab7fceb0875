// Package scenario samples the workload scenarios of Section 4.2 of the
// reproduced paper. A scenario assigns each query a random frequency
//
//	f_{j,s} = U(0,2)/p  with probability p,  0 otherwise  (paper: p = 0.75)
//
// so that E(f_{j,s}) = 1 and roughly a quarter of the queries are absent —
// modeling workload mixes with ad-hoc and seasonal queries. The in-sample
// scenario set used for optimization starts with the deterministic baseline
// f_j = 1; out-of-sample sets used for robustness verification are sampled
// the same way with an independent seed.
package scenario

import (
	"fmt"
	"math/rand"

	"fragalloc/internal/model"
)

// DefaultP is the paper's query-presence probability.
const DefaultP = 0.75

// InSample returns an S-scenario set for optimization: scenario 0 is the
// deterministic baseline (f_j = 1 for every query), scenarios 1..S-1 are
// random diversifications with presence probability p. It panics if s < 1.
func InSample(w *model.Workload, s int, p float64, seed int64) *model.ScenarioSet {
	if s < 1 {
		panic(fmt.Sprintf("scenario: need at least one scenario, got %d", s))
	}
	ss := &model.ScenarioSet{}
	base := make([]float64, len(w.Queries))
	for j := range base {
		base[j] = 1
	}
	ss.Frequencies = append(ss.Frequencies, base)
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i < s; i++ {
		ss.Frequencies = append(ss.Frequencies, Sample(rng, len(w.Queries), p))
	}
	return ss
}

// OutOfSample returns count random scenarios for robustness verification,
// sampled exactly like the diversified in-sample scenarios but from an
// independent seed.
func OutOfSample(w *model.Workload, count int, p float64, seed int64) *model.ScenarioSet {
	ss := &model.ScenarioSet{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		ss.Frequencies = append(ss.Frequencies, Sample(rng, len(w.Queries), p))
	}
	return ss
}

// CheckPresence returns an error unless p is a presence probability in
// (0,1]; the commands check their -p with it before sampling.
func CheckPresence(p float64) error {
	if !(p > 0 && p <= 1) {
		return fmt.Errorf("scenario: presence probability %g outside (0,1]", p)
	}
	return nil
}

// CheckCount returns an error when n, a number of scenarios to draw, is
// negative; the commands check their scenario counts with it before
// sampling.
func CheckCount(n int) error {
	if n < 0 {
		return fmt.Errorf("scenario: scenario count %d is negative", n)
	}
	return nil
}

// Sample draws one frequency vector over q queries from rng: each query is
// present with probability p at f = U(0,2)/p, else 0, and at least one query
// is always kept so the scenario carries load. It panics when p is outside
// (0,1] (see CheckPresence). InSample and OutOfSample draw their scenarios
// with it, and the daemon's drift generator its observed ones.
func Sample(rng *rand.Rand, q int, p float64) []float64 {
	if err := CheckPresence(p); err != nil {
		panic(err.Error())
	}
	freq := make([]float64, q)
	any := false
	for j := range freq {
		if rng.Float64() < p {
			freq[j] = rng.Float64() * 2 / p
			if freq[j] > 0 {
				any = true
			}
		}
	}
	if !any {
		freq[rng.Intn(q)] = 1
	}
	return freq
}
