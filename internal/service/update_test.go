package service

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

func updateWorkload(t testing.TB) *model.Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	w := &model.Workload{Name: "upd"}
	for i := 0; i < 12; i++ {
		w.Fragments = append(w.Fragments, model.Fragment{ID: i, Size: 1 + rng.Float64()*9})
	}
	for j := 0; j < 8; j++ {
		fr := []int{rng.Intn(12), (rng.Intn(11) + 1 + rng.Intn(12)) % 12}
		if fr[0] == fr[1] {
			fr = fr[:1]
		}
		w.Queries = append(w.Queries, model.Query{ID: j, Fragments: fr, Cost: 1 + rng.Float64(), Frequency: 1})
	}
	w.NormalizeQueryFragments()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDriftUpdateApply checks the clone-mutate-validate contract: the update
// lands on a fresh set, frequencies floor at zero, and the input set is
// untouched.
func TestDriftUpdateApply(t *testing.T) {
	w := updateWorkload(t)
	base := model.DefaultScenario(w)
	before := base.Clone()

	next, k, err := applyUpdate(w, base, 3, Update{
		FreqDeltas: []FreqDelta{
			{Scenario: 0, Query: 1, Delta: 0.5},
			{Scenario: 0, Query: 2, Delta: -100}, // floors at 0
		},
		Observe: [][]float64{make([]float64, len(w.Queries))},
		SetK:    5,
	})
	// The all-zero observed scenario is invalid (no load), so the whole
	// update must be rejected with no state change.
	if err == nil {
		t.Fatalf("applyUpdate accepted a zero-load scenario (next=%v k=%d)", next.Frequencies, k)
	}
	if !reflect.DeepEqual(base.Frequencies, before.Frequencies) {
		t.Fatal("a rejected update mutated the input scenario set")
	}

	obs := make([]float64, len(w.Queries))
	obs[3] = 2.5
	next, k, err = applyUpdate(w, base, 3, Update{
		FreqDeltas: []FreqDelta{
			{Scenario: 0, Query: 1, Delta: 0.5},
			{Scenario: 0, Query: 2, Delta: -100},
		},
		Observe: [][]float64{obs},
		SetK:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if k != 5 {
		t.Errorf("k = %d, want 5", k)
	}
	if next.S() != base.S()+1 {
		t.Errorf("S = %d, want %d", next.S(), base.S()+1)
	}
	if got := next.Frequencies[0][1]; got != 1.5 {
		t.Errorf("freq[0][1] = %v, want 1.5", got)
	}
	if got := next.Frequencies[0][2]; got != 0 {
		t.Errorf("freq[0][2] = %v, want floored to 0", got)
	}
	if !reflect.DeepEqual(base.Frequencies, before.Frequencies) {
		t.Fatal("applyUpdate mutated the input scenario set")
	}
}

// TestDriftUpdateRejections covers the validation surface: out-of-range
// indices, wrong-length observations, and K < 1 all reject the update whole.
func TestDriftUpdateRejections(t *testing.T) {
	w := updateWorkload(t)
	base := model.DefaultScenario(w)
	for name, u := range map[string]Update{
		"scenario-oob": {FreqDeltas: []FreqDelta{{Scenario: 7, Query: 0, Delta: 1}}},
		"scenario-neg": {FreqDeltas: []FreqDelta{{Scenario: -1, Query: 0, Delta: 1}}},
		"query-oob":    {FreqDeltas: []FreqDelta{{Scenario: 0, Query: 99, Delta: 1}}},
		"obs-short":    {Observe: [][]float64{{1, 2}}},
		"k-zero":       {SetK: -2},
	} {
		if _, _, err := applyUpdate(w, base, 3, u); err == nil {
			t.Errorf("%s: applyUpdate accepted %+v", name, u)
		}
	}
}

// TestDriftGeneratorDeterministic pins that a drift stream is a pure
// function of (workload, base, config).
func TestDriftGeneratorDeterministic(t *testing.T) {
	w := updateWorkload(t)
	base := scenario.InSample(w, 4, 0.75, 1)
	cfg := DriftConfig{Updates: 30, Seed: 9, ObserveProb: 0.3, NodeProb: 0.2, StartK: 4, MinK: 2, MaxK: 6}
	a := GenerateDrift(w, base, cfg)
	b := GenerateDrift(w, base, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different drift streams")
	}
	c := GenerateDrift(w, base, DriftConfig{Updates: 30, Seed: 10, ObserveProb: 0.3, NodeProb: 0.2, StartK: 4, MinK: 2, MaxK: 6})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical drift streams")
	}
}

// TestDriftGeneratorValidStream replays a generated stream through
// applyUpdate: every update must be valid against the state its
// predecessors produced, exercise all three update kinds, and respect the
// node-walk bounds.
func TestDriftGeneratorValidStream(t *testing.T) {
	w := updateWorkload(t)
	base := scenario.InSample(w, 3, 0.75, 1)
	cfg := DriftConfig{Updates: 60, Seed: 3, ObserveProb: 0.25, NodeProb: 0.2, StartK: 4, MinK: 2, MaxK: 6}
	updates := GenerateDrift(w, base, cfg)
	if len(updates) != cfg.Updates {
		t.Fatalf("got %d updates, want %d", len(updates), cfg.Updates)
	}
	ss, k := base.Clone(), cfg.StartK
	var deltas, observes, resizes int
	for i, u := range updates {
		var err error
		ss, k, err = applyUpdate(w, ss, k, u)
		if err != nil {
			t.Fatalf("update %d (%+v) invalid: %v", i, u, err)
		}
		if k < cfg.MinK || k > cfg.MaxK {
			t.Fatalf("update %d walked K to %d, outside [%d,%d]", i, k, cfg.MinK, cfg.MaxK)
		}
		switch {
		case len(u.FreqDeltas) > 0:
			deltas++
		case len(u.Observe) > 0:
			observes++
		case u.SetK != 0:
			resizes++
		default:
			t.Fatalf("update %d is empty", i)
		}
	}
	if deltas == 0 || observes == 0 || resizes == 0 {
		t.Errorf("stream of 60 missed an update kind: deltas=%d observes=%d resizes=%d", deltas, observes, resizes)
	}
	if ss.S() != base.S()+observes {
		t.Errorf("final S = %d, want %d", ss.S(), base.S()+observes)
	}
}

// TestDriftGeneratorNodeWalkBounds pins the node walk against its bounds.
// Every resize steps one node and lands inside [MinK, MaxK] or nearer to
// it, so bounds with no room draw no resize (the walk used to spin forever
// at K = MinK = MaxK = 1 and step below MinK at 3), and a walk started
// outside ends inside.
func TestDriftGeneratorNodeWalkBounds(t *testing.T) {
	w := updateWorkload(t)
	base := scenario.InSample(w, 2, 0.75, 1)
	for _, cfg := range []DriftConfig{
		{Updates: 20, Seed: 1, NodeProb: 1, StartK: 1, MinK: 1, MaxK: 1},
		{Updates: 20, Seed: 1, NodeProb: 1, StartK: 3, MinK: 3, MaxK: 3},
		{Updates: 20, Seed: 1, NodeProb: 1, StartK: 5, MinK: 2, MaxK: 4},
		{Updates: 20, Seed: 1, NodeProb: 1, StartK: 1, MinK: 3, MaxK: 5},
		{Updates: 20, Seed: 1, NodeProb: 1, StartK: 7, MinK: 2, MaxK: 4},
	} {
		away := func(k int) int { return max(cfg.MinK-k, k-cfg.MaxK, 0) }
		done := make(chan []Update, 1)
		go func() { done <- GenerateDrift(w, base, cfg) }()
		var updates []Update
		select {
		case updates = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%+v: GenerateDrift did not return", cfg)
		}
		if len(updates) != cfg.Updates {
			t.Fatalf("%+v: got %d updates, want %d", cfg, len(updates), cfg.Updates)
		}
		k := cfg.StartK
		for i, u := range updates {
			if u.SetK == 0 {
				continue
			}
			if d := u.SetK - k; d != 1 && d != -1 || away(u.SetK) > 0 && away(u.SetK) >= away(k) {
				t.Fatalf("%+v: update %d steps K %d → %d", cfg, i, k, u.SetK)
			}
			k = u.SetK
		}
		if away(k) > 0 {
			t.Fatalf("%+v: the walk ends at K %d", cfg, k)
		}
	}
}
