package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"fragalloc/internal/core"
	"fragalloc/internal/eval"
	"fragalloc/internal/model"
	"fragalloc/internal/service"
	"fragalloc/internal/simplex"
)

// The output checker. An operation that trips any rule here is a failed
// operation: it counts against fail_share and contributes no latency. The
// checks run outside the timed sections and use only independent means —
// sizes recomputed from the fragment catalog, the max-flow evaluator against
// the routing LP, the diff replayed on the old placement.

const (
	// loadTol is the slack on in-sample balance.
	loadTol = 1e-6
	// crossTol is the slack on flow-vs-LP agreement. The flow search is
	// exact to 1e-9, but the routing LP stops at the simplex's 1e-7
	// reduced-cost tolerance, which at Q=4461 leaves it up to ~1.5e-6 above
	// the optimum (measured on accounting_cluster_k8) — so 1e-6 would fail
	// a correct evaluator, while 1e-5 still catches a wrong one.
	crossTol = 1e-5
	// crossCheckSample is how many scenarios the flow evaluator is compared
	// with the independent routing LP on.
	crossCheckSample = 5
)

// checkAllocation verifies one solver result against its inputs. It judges
// the allocation JSON the operation emitted — the bytes a user would receive
// — not the in-memory value: the allocation is structurally valid, W matches the fragment sizes, every
// in-sample scenario balances within the load the solver certified, and the
// flow evaluator agrees with the routing LP on a seeded sample drawn from
// sample (the unseen set when the workload has one, else the in-sample set).
func checkAllocation(w *model.Workload, inSample, sample *model.ScenarioSet, k int, js []byte, res *core.Result, seed int64) error {
	a, err := decodeAllocation(js)
	if err != nil {
		return err
	}
	if a.K != k {
		return fmt.Errorf("allocation has %d nodes, want %d", a.K, k)
	}
	if err := a.Validate(w); err != nil {
		return fmt.Errorf("allocation invalid: %w", err)
	}
	if err := checkW(w, a, res.W); err != nil {
		return err
	}
	limit := res.MaxLoad/float64(k) + loadTol
	for s, freq := range inSample.Frequencies {
		l, err := eval.WorstLoadFlow(w, a, freq, 0)
		if err != nil {
			return fmt.Errorf("in-sample scenario %d: %w", s, err)
		}
		if !(l <= limit) {
			return fmt.Errorf("in-sample scenario %d: worst load %.9f exceeds certified %.9f", s, l, limit)
		}
	}
	return crossCheck(w, a, sample, seed)
}

// checkW recomputes W from the fragment catalog and compares it with the
// value the solver reported.
func checkW(w *model.Workload, a *model.Allocation, reported float64) error {
	var sum float64
	for _, frags := range a.Fragments {
		for _, i := range frags {
			sum += w.Fragments[i].Size
		}
	}
	if !simplex.EqTol(sum, reported, 1e-9*math.Max(1, math.Abs(sum))) {
		return fmt.Errorf("reported W %.6f disagrees with fragment sizes %.6f", reported, sum)
	}
	return nil
}

// crossCheck compares the max-flow evaluator with the routing LP on a seeded
// sample of scenarios.
func crossCheck(w *model.Workload, a *model.Allocation, ss *model.ScenarioSet, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := min(crossCheckSample, ss.S())
	for _, s := range rng.Perm(ss.S())[:n] {
		flow, err := eval.WorstLoadFlow(w, a, ss.Frequencies[s], 0)
		if err != nil {
			return fmt.Errorf("scenario %d flow: %w", s, err)
		}
		lp, err := eval.WorstLoadLP(w, a, ss.Frequencies[s])
		if err != nil {
			return fmt.Errorf("scenario %d routing LP: %w", s, err)
		}
		if math.IsInf(flow, 1) && math.IsInf(lp, 1) {
			continue
		}
		if !simplex.EqTol(flow, lp, crossTol) {
			return fmt.Errorf("scenario %d: flow %.9f and routing LP %.9f disagree", s, flow, lp)
		}
	}
	return nil
}

// sameBits is the determinism contract between two operations of one run:
// same inputs, same node budget, same bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkRepeat verifies that a repeated operation reproduced the first one
// bit for bit: the W/V, the encoded allocation and the out-of-sample gap.
func checkRepeat(first, again *solved) error {
	if a, b := first.res.ReplicationFactor, again.res.ReplicationFactor; !sameBits(a, b) {
		return fmt.Errorf("W/V %.17g differs from the first operation's %.17g", b, a)
	}
	if !bytes.Equal(first.js, again.js) {
		return fmt.Errorf("allocation bytes differ from the first operation's")
	}
	if first.metrics != nil && !sameBits(first.metrics.MeanGap, again.metrics.MeanGap) {
		return fmt.Errorf("robust gap %.17g differs from the first operation's %.17g", again.metrics.MeanGap, first.metrics.MeanGap)
	}
	return nil
}

// checkAdoption verifies one allocd adoption: the new incumbent is valid,
// its W matches the fragment sizes, it can serve every scenario of the
// desired set (finite worst load), and replaying the migration plan on the
// old placement reproduces the new one.
func checkAdoption(w *model.Workload, desired *model.ScenarioSet, old *model.Allocation, inc *service.Incumbent, diff *service.Diff) error {
	if inc == nil || inc.Allocation == nil {
		return fmt.Errorf("no incumbent")
	}
	if err := inc.Allocation.Validate(w); err != nil {
		return fmt.Errorf("incumbent invalid: %w", err)
	}
	if err := checkW(w, inc.Allocation, inc.W); err != nil {
		return err
	}
	ev := eval.NewEvaluator(w, inc.Allocation, 0)
	for s, freq := range desired.Frequencies {
		l, err := ev.WorstLoad(freq)
		if err != nil {
			return fmt.Errorf("desired scenario %d: %w", s, err)
		}
		if math.IsInf(l, 1) {
			return fmt.Errorf("desired scenario %d cannot be served by the incumbent of epoch %d", s, inc.Epoch)
		}
	}
	if diff == nil {
		return fmt.Errorf("adoption of epoch %d carried no migration plan", inc.Epoch)
	}
	return checkDiff(old, inc.Allocation, diff)
}

// checkDiff replays the migration plan on the old placement.
func checkDiff(old, next *model.Allocation, diff *service.Diff) error {
	got := service.ApplyDiff(old, diff)
	if !samePlacement(got, next) {
		return fmt.Errorf("migration plan %d→%d does not reproduce the new placement", diff.FromEpoch, diff.ToEpoch)
	}
	return nil
}

func samePlacement(a, b *model.Allocation) bool {
	if a.K != b.K || len(a.Fragments) != len(b.Fragments) {
		return false
	}
	for k := range a.Fragments {
		if !slices.Equal(a.Fragments[k], b.Fragments[k]) {
			return false
		}
	}
	return true
}

// checkRestore boots a second daemon on the populated state directory: it
// must come up serving the last adopted epoch without solving anything.
func checkRestore(cfg service.Config, last *service.Incumbent) (*service.Service, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	inc, _ := svc.Incumbent()
	if inc == nil {
		return nil, fmt.Errorf("restore: no incumbent in %s", cfg.StateDir)
	}
	if inc.Epoch != last.Epoch {
		return nil, fmt.Errorf("restore: booted into epoch %d, last served was %d", inc.Epoch, last.Epoch)
	}
	if !samePlacement(inc.Allocation, last.Allocation) {
		return nil, fmt.Errorf("restore: restored placement differs from the last served one")
	}
	if st := svc.Status(); st.Attempts != 0 {
		return nil, fmt.Errorf("restore: boot ran %d solve(s), want none", st.Attempts)
	}
	return svc, nil
}

func decodeAllocation(js []byte) (*model.Allocation, error) {
	var a model.Allocation
	if err := json.Unmarshal(js, &a); err != nil {
		return nil, fmt.Errorf("allocation JSON: %w", err)
	}
	return &a, nil
}
