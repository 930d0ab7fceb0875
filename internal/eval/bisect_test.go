package eval

import "math"

// worstLoadBisect is the reference search: binary-search L with an
// independent from-scratch feasibility probe per step, on the flow network
// (built here when the node count put WorstLoad on the closed form). It is
// within tol of the exact L̃, like both paths of WorstLoad, cross-checks
// them in the tests and times the pre-streaming path in
// BenchmarkEvalStream.
func (e *Evaluator) worstLoadBisect(freq []float64) (float64, error) {
	if e.g == nil {
		e.buildFlow()
	}
	lo, totalLoad, err := e.prepare(freq)
	if err != nil || math.IsInf(lo, 1) {
		return lo, err
	}
	if e.feasible(lo, totalLoad) {
		return lo, nil
	}
	hi := 1.0
	for hi-lo > e.tol {
		mid := (lo + hi) / 2
		if e.feasible(mid, totalLoad) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// feasible probes whether all load can be routed with no node above l, from
// a fresh residual state.
func (e *Evaluator) feasible(l, totalLoad float64) bool {
	e.resetCapacities(l)
	return e.g.MaxFlow(e.source, e.sink, e.tol/16) >= totalLoad-e.tol/4
}
