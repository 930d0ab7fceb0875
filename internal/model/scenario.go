package model

import (
	"fmt"
	"math"
)

// ScenarioSet holds S workload scenarios over the same query set. Scenario s
// is a frequency vector f_{.,s}; query costs are shared with the workload.
//
// The paper's convention (Section 4.2): scenario 0 is the deterministic
// baseline with f_j = 1 for all queries; further scenarios are randomly
// diversified.
type ScenarioSet struct {
	// Frequencies[s][j] is the frequency of query j in scenario s.
	Frequencies [][]float64 `json:"frequencies"`
	// Weights, if non-nil, assigns each scenario a positive weight. A
	// reduced scenario set (internal/scenario.Reduce) uses the weights to
	// record how many original scenarios each cluster representative stands
	// for, so expected-value statistics over the representatives estimate
	// the statistics of the full set. nil means uniform weights of 1.
	Weights []float64 `json:"weights,omitempty"`
}

// Weight returns scenario s's weight (1 when Weights is nil).
func (ss *ScenarioSet) Weight(s int) float64 {
	if ss.Weights == nil {
		return 1
	}
	return ss.Weights[s]
}

// TotalWeight returns the summed scenario weights (S when Weights is nil).
func (ss *ScenarioSet) TotalWeight() float64 {
	if ss.Weights == nil {
		return float64(len(ss.Frequencies))
	}
	var t float64
	for _, w := range ss.Weights {
		t += w
	}
	return t
}

// SingleScenario wraps one frequency vector as a ScenarioSet with S=1. The
// vector is copied, so later caller mutations do not leak into the set.
func SingleScenario(freq []float64) *ScenarioSet {
	return &ScenarioSet{Frequencies: [][]float64{append([]float64(nil), freq...)}}
}

// DefaultScenario builds the S=1 scenario set from the workload's default
// frequencies.
func DefaultScenario(w *Workload) *ScenarioSet {
	return SingleScenario(w.DefaultFrequencies())
}

// S returns the number of scenarios.
func (ss *ScenarioSet) S() int { return len(ss.Frequencies) }

// Clone returns a deep copy of the scenario set. The allocation service
// mutates only clones, so a scenario set handed to a running solve is
// immutable for the solve's whole lifetime.
func (ss *ScenarioSet) Clone() *ScenarioSet {
	c := &ScenarioSet{Frequencies: make([][]float64, len(ss.Frequencies))}
	for s := range ss.Frequencies {
		c.Frequencies[s] = append([]float64(nil), ss.Frequencies[s]...)
	}
	if ss.Weights != nil {
		c.Weights = append([]float64(nil), ss.Weights...)
	}
	return c
}

// Validate checks that every scenario has exactly Q finite non-negative
// frequencies and a finite positive total cost, and that Weights — if
// present — holds one finite positive weight per scenario. Finiteness is what
// lets every consumer encode the set as JSON and sum it without overflow.
func (ss *ScenarioSet) Validate(w *Workload) error {
	if len(ss.Frequencies) == 0 {
		return fmt.Errorf("model: scenario set is empty")
	}
	if ss.Weights != nil {
		if len(ss.Weights) != len(ss.Frequencies) {
			return fmt.Errorf("model: scenario set has %d weights, want %d", len(ss.Weights), len(ss.Frequencies))
		}
		for s, wt := range ss.Weights {
			if wt <= 0 || math.IsInf(wt, 0) || math.IsNaN(wt) {
				return fmt.Errorf("model: scenario %d has non-positive weight %g", s, wt)
			}
		}
	}
	for s, freq := range ss.Frequencies {
		if len(freq) != len(w.Queries) {
			return fmt.Errorf("model: scenario %d has %d frequencies, want %d", s, len(freq), len(w.Queries))
		}
		for j, f := range freq {
			if f < 0 || math.IsInf(f, 0) || math.IsNaN(f) {
				return fmt.Errorf("model: scenario %d query %d has frequency %g, want finite and non-negative", s, j, f)
			}
		}
		if c := w.TotalCost(freq); c <= 0 || math.IsInf(c, 0) {
			return fmt.Errorf("model: scenario %d has total cost %g, want finite and positive", s, c)
		}
	}
	return nil
}

// ExpectedLoads returns per-query expected normalized loads
// E_s(f_{j,s}) * c_j averaged over scenarios, which the partial clustering
// approach uses to order queries (Section 3.2). The average is weighted by
// Weights when present, so a reduced set's representatives reproduce the
// expectation over the full set they stand for.
func (ss *ScenarioSet) ExpectedLoads(w *Workload) []float64 {
	loads := make([]float64, len(w.Queries))
	if len(ss.Frequencies) == 0 {
		return loads
	}
	for s, freq := range ss.Frequencies {
		wt := ss.Weight(s)
		for j := range loads {
			loads[j] += wt * freq[j] * w.Queries[j].Cost
		}
	}
	inv := 1 / ss.TotalWeight()
	for j := range loads {
		loads[j] *= inv
	}
	return loads
}

// TotalCosts returns C_s for each scenario.
func (ss *ScenarioSet) TotalCosts(w *Workload) []float64 {
	cs := make([]float64, len(ss.Frequencies))
	for s, freq := range ss.Frequencies {
		cs[s] = w.TotalCost(freq)
	}
	return cs
}
