package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fragalloc/internal/model"
)

// Scenario reduction (DESIGN.md §3.12): cluster an S-scenario set by the
// similarity of its normalized load-share vectors and keep one weighted
// representative per cluster, so the robust model is solved over R ≪ S
// scenarios while every member scenario stays provably covered.
//
// The coverage guarantee rests on a transport argument: two scenarios whose
// normalized load vectors (f_j·c_j / C) differ by d in L1 admit worst-case
// load shares within d/2 of each other under ANY fixed allocation that can
// serve both — rerouting the moved load mass (d/2 of the total) can raise no
// node's share by more than that mass. Radius[r] records that d/2 bound for
// the farthest member of cluster r, so an allocation that balances the
// representatives to L̃_r balances every member to at most L̃_r + Radius[r].

// ReduceConfig parameterizes Reduce. Only R is required.
type ReduceConfig struct {
	// R is the number of cluster representatives to keep (1 ≤ R; R ≥ S
	// yields the identity reduction).
	R int
	// Seed drives the deterministic k-medoids++ initialization: the first
	// medoid is drawn from the seeded generator, every later choice is a
	// deterministic farthest-first step. The same (workload, set, config)
	// always reduces identically.
	Seed int64
}

// maxIter bounds the assign/update alternation; k-medoids converges in a
// handful of rounds on frequency-vector data.
const maxIter = 50

// Reduction is the result of clustering a scenario set: the weighted
// representative set to solve over, the membership structure, and the
// per-cluster deviation bounds that certify coverage.
//
// A Reduction is not safe for concurrent mutation; the allocation service
// serializes Fold/Nearest under its own lock.
type Reduction struct {
	// Reduced holds one representative frequency vector per cluster, in
	// ascending order of the medoid's original scenario index. Its Weights
	// are the summed member weights (member counts for unweighted input),
	// so weighted statistics over Reduced estimate the full set's. The
	// vectors are the medoids' own frequencies, plus a vanishing ε
	// frequency on every query that is active somewhere in the cluster but
	// absent from the medoid — that keeps each member scenario servable by
	// construction (coverage), at a load-share perturbation of O(1e-9).
	Reduced *model.ScenarioSet
	// Medoids[r] is the original index of cluster r's representative.
	Medoids []int
	// Assign[s] is the cluster of original scenario s.
	Assign []int
	// Members[r] lists cluster r's original scenario indices, ascending.
	Members [][]int
	// Radius[r] is the deviation bound of cluster r: half the largest L1
	// distance between a member's normalized load-share vector and the
	// representative's. For every allocation that can serve both,
	// |L̃(member) − L̃(representative)| ≤ Radius[r].
	Radius []float64

	// costs are the per-query costs, kept so Nearest can normalize raw
	// frequency vectors; repShares are the representatives' normalized
	// share vectors; scratch backs Nearest's normalization.
	costs     []float64
	repShares [][]float64
	scratch   []float64
}

// Reduce clusters the scenario set's normalized load-share vectors with
// deterministic seeded k-medoids and returns the weighted representative
// structure. The input set is not modified.
func Reduce(w *model.Workload, ss *model.ScenarioSet, cfg ReduceConfig) (*Reduction, error) {
	if cfg.R < 1 {
		return nil, fmt.Errorf("scenario: ReduceConfig.R must be at least 1, got %d", cfg.R)
	}
	if err := ss.Validate(w); err != nil {
		return nil, fmt.Errorf("scenario: reduce input: %w", err)
	}
	s := ss.S()
	r := cfg.R
	if r > s {
		r = s
	}

	costs := make([]float64, len(w.Queries))
	for j, q := range w.Queries {
		costs[j] = q.Cost
	}
	shares := make([][]float64, s)
	for i := range shares {
		shares[i] = shareVector(costs, ss.Frequencies[i], nil)
	}
	dist := func(a, b int) float64 { return l1(shares[a], shares[b]) }

	// Seeded k-medoids++ initialization: one random first medoid, then
	// deterministic farthest-first steps (ties break on the lowest index).
	medoids := make([]int, 0, r)
	chosen := make([]bool, s)
	rng := rand.New(rand.NewSource(cfg.Seed))
	first := rng.Intn(s)
	medoids = append(medoids, first)
	chosen[first] = true
	nearest := make([]float64, s) // distance to the closest chosen medoid
	for i := range nearest {
		nearest[i] = dist(i, first)
	}
	for len(medoids) < r {
		best, bestD := -1, -1.0
		for i := 0; i < s; i++ {
			if !chosen[i] && nearest[i] > bestD {
				best, bestD = i, nearest[i]
			}
		}
		medoids = append(medoids, best)
		chosen[best] = true
		for i := range nearest {
			if d := dist(i, best); d < nearest[i] {
				nearest[i] = d
			}
		}
	}
	sort.Ints(medoids)

	// PAM alternation: assign to the nearest medoid (ties to the lowest
	// cluster index), then swap each medoid for the member minimizing the
	// weighted within-cluster distance sum (ties to the lowest index).
	assign := make([]int, s)
	members := make([][]int, r)
	assignAll := func() {
		for c := range members {
			members[c] = members[c][:0]
		}
		for i := 0; i < s; i++ {
			best, bestD := 0, math.Inf(1)
			for c, m := range medoids {
				if d := dist(i, m); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
		}
		// A medoid always claims itself: distance 0 can only tie, and its
		// own cluster might not win the tie when two medoids coincide.
		for c, m := range medoids {
			assign[m] = c
		}
		for i := 0; i < s; i++ {
			members[assign[i]] = append(members[assign[i]], i)
		}
	}
	assignAll()
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for c := range medoids {
			// Members iterate ascending and only a strictly smaller sum
			// displaces the incumbent, so ties keep the lowest index.
			best, bestSum := medoids[c], math.Inf(1)
			for _, cand := range members[c] {
				var sum float64
				for _, m := range members[c] {
					sum += ss.Weight(m) * l1(shares[cand], shares[m])
				}
				if sum < bestSum {
					best, bestSum = cand, sum
				}
			}
			if best != medoids[c] {
				medoids[c] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		sort.Ints(medoids)
		assignAll()
	}

	// Canonical cluster order: ascending medoid index (medoids are sorted,
	// so clusters already are). Build the weighted representative set with
	// the ε coverage pass, then the half-L1 deviation radii against the
	// actual (ε-augmented) representative share vectors.
	red := &Reduction{
		Medoids: medoids,
		Assign:  assign,
		Members: members,
		Radius:  make([]float64, r),
		costs:   costs,
	}
	red.Reduced = &model.ScenarioSet{
		Frequencies: make([][]float64, r),
		Weights:     make([]float64, r),
	}
	red.repShares = make([][]float64, r)
	for c, m := range medoids {
		rep := append([]float64(nil), ss.Frequencies[m]...)
		for _, i := range members[c] {
			for j, f := range ss.Frequencies[i] {
				if f > 0 && rep[j] == 0 {
					rep[j] = coverEps
				}
			}
		}
		var weight float64
		for _, i := range members[c] {
			weight += ss.Weight(i)
		}
		red.Reduced.Frequencies[c] = rep
		red.Reduced.Weights[c] = weight
		red.repShares[c] = shareVector(costs, rep, nil)
		for _, i := range members[c] {
			if d := halfL1(shares[i], red.repShares[c]); d > red.Radius[c] {
				red.Radius[c] = d
			}
		}
	}
	return red, nil
}

// coverEps is the vanishing frequency planted on cluster-active queries the
// medoid itself does not run. It keeps every member scenario servable by any
// allocation that serves the representatives, while perturbing the
// representative's load shares by under 1e-9 of the total.
const coverEps = 1e-9

// R returns the number of clusters.
func (r *Reduction) R() int { return len(r.Medoids) }

// MaxRadius returns the largest per-cluster deviation bound — the guarantee
// the reduced solve carries for the whole original set.
func (r *Reduction) MaxRadius() float64 {
	var m float64
	for _, d := range r.Radius {
		if d > m {
			m = d
		}
	}
	return m
}

// Nearest returns the cluster whose representative is closest to the raw
// frequency vector in L1 — the clustering distance — plus the half-L1 deviation
// of the vector from that representative (comparable against Radius). Not
// safe for concurrent use.
func (r *Reduction) Nearest(freq []float64) (cluster int, deviation float64) {
	r.scratch = shareVector(r.costs, freq, r.scratch)
	best, bestD := 0, math.Inf(1)
	for c, rep := range r.repShares {
		if d := l1(r.scratch, rep); d < bestD {
			best, bestD = c, d
		}
	}
	return best, halfL1(r.scratch, r.repShares[best])
}

// Fold absorbs one newly observed scenario (of the given weight) into a
// cluster previously chosen by Nearest: the representative's weight grows
// and the cluster radius widens to keep the deviation bound true for the
// new member. The representative vector itself does not move — Fold is the
// cheap path that keeps re-optimizations warm; callers decide when the
// accumulated drift justifies a fresh Reduce.
func (r *Reduction) Fold(cluster int, deviation, weight float64) {
	r.Reduced.Weights[cluster] += weight
	if deviation > r.Radius[cluster] {
		r.Radius[cluster] = deviation
	}
}

// Absorb is the service's fold path: route one frequency vector (a newly
// observed scenario, or an existing one after a drift delta) to its nearest
// cluster, keep the coverage invariant — any query the vector activates
// that the representative does not gets the ε frequency, so solves over the
// representatives can still serve it — and widen the radius to the vector's
// deviation. A weight of 0 records pure drift (the scenario was already
// counted). Membership lists are NOT updated; between re-clusterings they
// describe the last full Reduce, while weight, radius, and coverage stay
// current. O(R·Q); not safe for concurrent use.
func (r *Reduction) Absorb(freq []float64, weight float64) (cluster int, deviation float64) {
	c, dev := r.Nearest(freq)
	rep := r.Reduced.Frequencies[c]
	changed := false
	for j, f := range freq {
		if f > 0 && rep[j] <= 0 {
			rep[j] = coverEps
			changed = true
		}
	}
	if changed {
		// The ε augmentation moves the representative's shares by O(1e-9);
		// dev measured pre-augmentation stays valid at that precision.
		r.repShares[c] = shareVector(r.costs, rep, r.repShares[c])
	}
	r.Fold(c, dev, weight)
	return c, dev
}

// shareVector writes freq's normalized load shares f_j·c_j/C into dst
// (grown as needed). A zero-cost scenario yields all-zero shares.
func shareVector(costs, freq, dst []float64) []float64 {
	if cap(dst) < len(freq) {
		dst = make([]float64, len(freq))
	}
	dst = dst[:len(freq)]
	var total float64
	for j, f := range freq {
		total += f * costs[j]
	}
	if total <= 0 {
		for j := range dst {
			dst[j] = 0
		}
		return dst
	}
	for j, f := range freq {
		dst[j] = f * costs[j] / total
	}
	return dst
}

// l1 is the clustering distance between two normalized load-share vectors:
// the sum of absolute share differences, the metric of the coverage bound.
func l1(a, b []float64) float64 {
	var d float64
	for j := range a {
		d += math.Abs(a[j] - b[j])
	}
	return d
}

// halfL1 is the deviation bound between two normalized share vectors: half
// their L1 distance bounds |L̃(a) − L̃(b)| under any allocation serving both.
func halfL1(a, b []float64) float64 { return l1(a, b) / 2 }
