package service

import (
	"fmt"
	"math/rand"

	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

// Update is one workload-drift event the service ingests: query-frequency
// deltas against existing scenarios, newly observed scenarios, and cluster
// resizes (node join/leave). Every field is optional; an empty update is a
// no-op that still advances the epoch.
type Update struct {
	// FreqDeltas adjusts individual query frequencies of existing
	// scenarios; results floor at zero.
	FreqDeltas []FreqDelta `json:"freq_deltas,omitempty"`
	// Observe appends newly observed scenarios, each a frequency vector of
	// length Q.
	Observe [][]float64 `json:"observe,omitempty"`
	// SetK, when > 0, resizes the cluster to this many nodes.
	SetK int `json:"set_k,omitempty"`
}

// FreqDelta shifts one query's frequency in one scenario.
type FreqDelta struct {
	Scenario int     `json:"scenario"`
	Query    int     `json:"query"`
	Delta    float64 `json:"delta"`
}

// applyUpdate returns a fresh scenario set and node count with u applied.
// The input set is never mutated — solves hold references to it — and an
// invalid update (bad indices, a scenario drained to zero total cost, K < 1)
// is rejected whole, leaving the desired state untouched.
func applyUpdate(w *model.Workload, ss *model.ScenarioSet, k int, u Update) (*model.ScenarioSet, int, error) {
	next := ss.Clone()
	for _, d := range u.FreqDeltas {
		if d.Scenario < 0 || d.Scenario >= next.S() {
			return nil, 0, fmt.Errorf("service: freq delta names scenario %d outside [0,%d)", d.Scenario, next.S())
		}
		if d.Query < 0 || d.Query >= len(w.Queries) {
			return nil, 0, fmt.Errorf("service: freq delta names query %d outside [0,%d)", d.Query, len(w.Queries))
		}
		f := next.Frequencies[d.Scenario][d.Query] + d.Delta
		if f < 0 {
			f = 0
		}
		next.Frequencies[d.Scenario][d.Query] = f
	}
	for _, obs := range u.Observe {
		if len(obs) != len(w.Queries) {
			return nil, 0, fmt.Errorf("service: observed scenario has %d frequencies, want %d", len(obs), len(w.Queries))
		}
		next.Frequencies = append(next.Frequencies, append([]float64(nil), obs...))
	}
	nk := k
	if u.SetK != 0 {
		if u.SetK < 1 {
			return nil, 0, fmt.Errorf("service: SetK=%d, need at least one node", u.SetK)
		}
		nk = u.SetK
	}
	if err := next.Validate(w); err != nil {
		return nil, 0, err
	}
	return next, nk, nil
}

// DriftConfig parameterizes GenerateDrift. The zero value of the optional
// knobs means: 3 deltas per update, max relative delta 0.5, the paper's
// presence probability 0.75, no observed scenarios and no node join/leave.
type DriftConfig struct {
	// Updates is the stream length; Seed makes it reproducible.
	Updates int
	Seed    int64
	// DeltasPerUpdate is how many frequency deltas a plain drift update
	// carries; MaxDelta bounds each delta's magnitude (frequencies are
	// O(1), so 0.5 is substantial drift).
	DeltasPerUpdate int
	MaxDelta        float64
	// ObserveProb is the probability an update observes a brand-new
	// scenario instead of drifting existing frequencies, taken as it
	// stands: 0 observes none. Presence is the query-presence probability
	// of observed scenarios (Section 4.2).
	ObserveProb float64
	Presence    float64
	// NodeProb, when positive, is the probability an update resizes the
	// cluster by ±1 node, random-walking K within [MinK, MaxK] (MaxK 0 =
	// no upper bound) from StartK. A StartK outside the bounds walks
	// toward them; bounds with no room for a step keep K where it is.
	NodeProb   float64
	MinK, MaxK int
	StartK     int
}

// GenerateDrift returns a deterministic, seeded stream of drift updates
// against workload w and base scenario set: the same (workload, base,
// config) always yields the same stream, so service integration tests and
// demos replay identical drift. Every emitted update is valid against the
// state produced by applying its predecessors in order.
func GenerateDrift(w *model.Workload, base *model.ScenarioSet, cfg DriftConfig) []Update {
	rng := rand.New(rand.NewSource(cfg.Seed))
	deltas := cfg.DeltasPerUpdate
	if deltas <= 0 {
		deltas = 3
	}
	maxDelta := cfg.MaxDelta
	if maxDelta <= 0 {
		maxDelta = 0.5
	}
	presence := cfg.Presence
	if presence <= 0 || presence > 1 {
		presence = 0.75
	}

	q := len(w.Queries)
	scenarios := base.S()
	k := cfg.StartK
	// away is how far n lies outside [max(MinK, 1), MaxK]; the walk may
	// step to n when n is inside, or nearer than k from outside.
	away := func(n int) int {
		if lo := max(cfg.MinK, 1); n < lo {
			return lo - n
		}
		if cfg.MaxK > 0 && n > cfg.MaxK {
			return n - cfg.MaxK
		}
		return 0
	}
	fits := func(n int) bool { d := away(n); return d == 0 || d < away(k) }
	var updates []Update
	for len(updates) < cfg.Updates {
		var u Update
		switch {
		case cfg.NodeProb > 0 && k > 0 && (fits(k-1) || fits(k+1)) && rng.Float64() < cfg.NodeProb:
			// Node join/leave: random-walk K one step inside the bounds (or
			// toward them), the other way when the drawn step does not
			// fit. Bounds that leave no step never draw one.
			nk := k + 1
			if rng.Float64() < 0.5 {
				nk = k - 1
			}
			if !fits(nk) {
				nk = 2*k - nk
			}
			k = nk
			u.SetK = nk
		case rng.Float64() < cfg.ObserveProb:
			u.Observe = [][]float64{scenario.Sample(rng, q, presence)}
			scenarios++
		default:
			for i := 0; i < deltas; i++ {
				u.FreqDeltas = append(u.FreqDeltas, FreqDelta{
					Scenario: rng.Intn(scenarios),
					Query:    rng.Intn(q),
					Delta:    (rng.Float64()*2 - 1) * maxDelta,
				})
			}
		}
		updates = append(updates, u)
	}
	return updates
}
