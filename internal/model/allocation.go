package model

import (
	"fmt"
	"math"
	"sort"
)

// Allocation assigns fragments to K nodes and optionally records the query
// routing (workload shares) that certifies the allocation can balance one or
// more workload scenarios.
type Allocation struct {
	// K is the number of replica nodes.
	K int `json:"k"`
	// Fragments[k] lists the IDs of the fragments stored on node k, sorted
	// ascending without duplicates.
	Fragments [][]int `json:"fragments"`
	// Shares, if non-nil, holds the certified routing: Shares[s][j][k] is
	// the share of query j executed on node k in scenario s. For each
	// scenario and query with positive load the shares sum to 1.
	Shares [][][]float64 `json:"shares,omitempty"`
}

// NewAllocation returns an empty allocation with K nodes.
func NewAllocation(k int) *Allocation {
	return &Allocation{K: k, Fragments: make([][]int, k)}
}

// HasFragment reports whether node k stores fragment i. Fragment lists are
// sorted, so the lookup is a binary search.
func (a *Allocation) HasFragment(k, i int) bool {
	fr := a.Fragments[k]
	idx := sort.SearchInts(fr, i)
	return idx < len(fr) && fr[idx] == i
}

// AddFragment stores fragment i on node k, preserving the sorted-unique
// invariant. Adding an already stored fragment is a no-op.
func (a *Allocation) AddFragment(k, i int) {
	fr := a.Fragments[k]
	idx := sort.SearchInts(fr, i)
	if idx < len(fr) && fr[idx] == i {
		return
	}
	fr = append(fr, 0)
	copy(fr[idx+1:], fr[idx:])
	fr[idx] = i
	a.Fragments[k] = fr
}

// CanRun reports whether query q (by value) can execute on node k, i.e.
// whether the node stores every fragment the query accesses.
func (a *Allocation) CanRun(q *Query, k int) bool {
	fr := a.Fragments[k]
	// Merge-walk both sorted lists.
	pos := 0
	for _, need := range q.Fragments {
		for pos < len(fr) && fr[pos] < need {
			pos++
		}
		if pos >= len(fr) || fr[pos] != need {
			return false
		}
	}
	return true
}

// NodeSize returns the total size of the fragments on node k.
func (a *Allocation) NodeSize(w *Workload, k int) float64 {
	var s float64
	for _, i := range a.Fragments[k] {
		s += w.Fragments[i].Size
	}
	return s
}

// TotalData returns W, the summed size of all stored fragment copies.
func (a *Allocation) TotalData(w *Workload) float64 {
	var s float64
	for k := 0; k < a.K; k++ {
		s += a.NodeSize(w, k)
	}
	return s
}

// ReplicationFactor returns W/V for the given workload, using the default
// frequencies to determine V. It returns +Inf if V is zero and W positive.
func (a *Allocation) ReplicationFactor(w *Workload) float64 {
	v := w.AccessedDataSize()
	wd := a.TotalData(w)
	if v == 0 {
		if wd == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return wd / v
}

// Validate checks structural consistency against a workload: node count,
// fragment ID ranges, sorted-unique lists, and — if Shares is present —
// that shares are within [0,1], only positive on nodes that can run the
// query, and sum to 1 for every query with positive load.
func (a *Allocation) Validate(w *Workload) error {
	if a.K <= 0 {
		return fmt.Errorf("model: allocation has K=%d", a.K)
	}
	if len(a.Fragments) != a.K {
		return fmt.Errorf("model: allocation has %d fragment lists, want K=%d", len(a.Fragments), a.K)
	}
	for k, fr := range a.Fragments {
		prev := -1
		for _, i := range fr {
			if i < 0 || i >= len(w.Fragments) {
				return fmt.Errorf("model: node %d stores fragment %d outside [0,%d)", k, i, len(w.Fragments))
			}
			if i <= prev {
				return fmt.Errorf("model: node %d fragment list not sorted/unique at %d", k, i)
			}
			prev = i
		}
	}
	for s := range a.Shares {
		if err := a.validateShares(w, s); err != nil {
			return err
		}
	}
	return nil
}

func (a *Allocation) validateShares(w *Workload, s int) error {
	const eps = 1e-6
	shares := a.Shares[s]
	if len(shares) != len(w.Queries) {
		return fmt.Errorf("model: scenario %d has shares for %d queries, want %d", s, len(shares), len(w.Queries))
	}
	for j := range shares {
		if len(shares[j]) != a.K {
			return fmt.Errorf("model: scenario %d query %d has %d node shares, want %d", s, j, len(shares[j]), a.K)
		}
		var sum float64
		for k, z := range shares[j] {
			if z < -eps || z > 1+eps {
				return fmt.Errorf("model: scenario %d query %d node %d share %g outside [0,1]", s, j, k, z)
			}
			if z > eps && !a.CanRun(&w.Queries[j], k) {
				return fmt.Errorf("model: scenario %d query %d has share %g on node %d missing fragments", s, j, z, k)
			}
			sum += z
		}
		// Queries with zero load may be left unrouted (all-zero shares).
		if math.Abs(sum-1) > 1e-4 && math.Abs(sum) > 1e-4 {
			return fmt.Errorf("model: scenario %d query %d shares sum to %g, want 0 or 1", s, j, sum)
		}
	}
	return nil
}

// NodeLoads returns, for frequency vector freq, the fraction of the total
// workload cost assigned to each node by the scenario-s routing in Shares.
// The result sums to 1 when all shares do.
func (a *Allocation) NodeLoads(w *Workload, freq []float64, s int) []float64 {
	loads := make([]float64, a.K)
	total := w.TotalCost(freq)
	if total == 0 {
		return loads
	}
	for j, q := range w.Queries {
		lj := freq[j] * q.Cost / total
		if lj == 0 {
			continue
		}
		for k, z := range a.Shares[s][j] {
			loads[k] += lj * z
		}
	}
	return loads
}
