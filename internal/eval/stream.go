package eval

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fragalloc/internal/model"
)

// StreamOptions configures EvaluateStream.
type StreamOptions struct {
	// Parallelism is the worker count (≤ 0 means GOMAXPROCS). The result is
	// bit-identical at every parallelism level.
	Parallelism int
}

// streamTol is the absolute precision of each scenario's L̃.
const streamTol = 1e-9

// EvaluateStream computes L̃ for every scenario in ss against one fixed
// allocation with a bounded worker pool. Each worker owns a private
// Evaluator — allocation-dependent state (executability sets, flow-graph
// structure, scratch) is built once per worker, not once per scenario — and
// scenarios are pulled off a shared atomic counter.
//
// Determinism contract (the core driver's): every scenario's L̃ is a pure
// function of (workload, allocation, frequency vector, tolerance), and the
// aggregate statistics are folded serially in scenario-index order after all
// workers finish. Aggregates are therefore bit-identical whether the pool
// runs 1 worker or 64.
//
// Aggregates are weighted by ss.Weights when present (reduced scenario sets
// record member counts there), and reduce to the plain mean otherwise.
func EvaluateStream(w *model.Workload, alloc *model.Allocation, ss *model.ScenarioSet, opt StreamOptions) (*Metrics, error) {
	s := ss.S()
	if s == 0 {
		return &Metrics{}, nil
	}
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > s {
		workers = s
	}

	results := make([]float64, s)
	errs := make([]error, s)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEvaluator(w, alloc, streamTol)
			for {
				idx := int(next.Add(1)) - 1
				if idx >= s {
					return
				}
				results[idx], errs[idx] = e.WorstLoad(ss.Frequencies[idx])
			}
		}()
	}
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("eval: scenario %d: %w", idx, err)
		}
	}

	// Serial index-order aggregation: float addition is not associative, so
	// this ordering — not the completion order — is what the determinism
	// contract hangs on.
	m := &Metrics{L: results}
	invK := 1 / float64(alloc.K)
	var sumL, sumT, finiteW, totalW float64
	for idx, l := range results {
		wt := ss.Weight(idx)
		totalW += wt
		if math.IsInf(l, 1) {
			m.Unservable++
			continue
		}
		finiteW += wt
		sumL += wt * l
		sumT += wt * (invK / l)
	}
	if finiteW > 0 {
		m.MeanL = sumL / finiteW
		m.MeanGap = m.MeanL - invK
	}
	m.MeanThroughput = sumT / totalW // unservable scenarios count as 0
	return m, nil
}
