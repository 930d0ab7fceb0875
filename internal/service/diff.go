package service

import (
	"fmt"
	"sort"

	"fragalloc/internal/hungarian"
	"fragalloc/internal/model"
)

// Diff is a migration plan between two incumbent allocations: which
// fragments every new node must copy or drop, which old nodes retire, and
// what the move costs in bytes. The service emits one per adoption — the
// snapshot→solve→diff shape — so operators apply an incremental plan instead
// of re-materializing the whole allocation from scratch.
type Diff struct {
	// FromEpoch and ToEpoch tag which update epochs the plan connects.
	FromEpoch uint64 `json:"from_epoch"`
	ToEpoch   uint64 `json:"to_epoch"`
	// Nodes has one entry per node of the new allocation, in node order.
	Nodes []NodeDiff `json:"nodes"`
	// Removed lists old nodes with no successor (node leave), ascending.
	Removed []int `json:"removed,omitempty"`
	// MigrationBytes totals the fragment bytes the new nodes must copy —
	// the data-movement cost the Hungarian node mapping minimizes.
	MigrationBytes float64 `json:"migration_bytes"`
}

// NodeDiff is the migration plan of one node of the new allocation.
type NodeDiff struct {
	// Node is the node's index in the new allocation.
	Node int `json:"node"`
	// From is the old node this one inherits its data from, or -1 for a
	// node that joins fresh and copies everything.
	From int `json:"from"`
	// Copy lists the fragments the node must fetch, Drop the fragments it
	// inherits but no longer needs; both sorted ascending.
	Copy []int `json:"copy,omitempty"`
	Drop []int `json:"drop,omitempty"`
	// CopyBytes is the size of the Copy set.
	CopyBytes float64 `json:"copy_bytes"`
}

// ComputeDiff maps the old allocation's nodes onto the new one's with a
// min-cost assignment — cost of pairing new node r with old node c = the
// bytes r would have to copy — and derives the per-node copy/drop plan. The
// matrix is padded square so node join (new > old) and node leave
// (old > new) both reduce to a perfect matching: virtual old nodes cost a
// fresh full copy, virtual new nodes absorb retired old nodes for free.
func ComputeDiff(w *model.Workload, old, next *model.Allocation, fromEpoch, toEpoch uint64) (*Diff, error) {
	if old == nil || next == nil {
		return nil, fmt.Errorf("service: diff needs two allocations")
	}
	n := old.K
	if next.K > n {
		n = next.K
	}
	cost := make([][]float64, n)
	for r := range cost {
		cost[r] = make([]float64, n)
		if r >= next.K {
			continue // virtual new node: free to pair with anything
		}
		for c := 0; c < n; c++ {
			if c >= old.K {
				cost[r][c] = next.NodeSize(w, r) // fresh node: copy everything
				continue
			}
			var missing float64
			for _, i := range next.Fragments[r] {
				if !old.HasFragment(c, i) {
					missing += w.Fragments[i].Size
				}
			}
			cost[r][c] = missing
		}
	}
	assign, _, err := hungarian.Solve(cost)
	if err != nil {
		return nil, fmt.Errorf("service: node mapping: %w", err)
	}

	d := &Diff{FromEpoch: fromEpoch, ToEpoch: toEpoch}
	used := make([]bool, n)
	for r := 0; r < next.K; r++ {
		from := assign[r]
		used[from] = true
		nd := NodeDiff{Node: r, From: from}
		if from >= old.K {
			nd.From = -1
		}
		for _, i := range next.Fragments[r] {
			if nd.From < 0 || !old.HasFragment(from, i) {
				nd.Copy = append(nd.Copy, i)
				nd.CopyBytes += w.Fragments[i].Size
			}
		}
		if nd.From >= 0 {
			for _, i := range old.Fragments[from] {
				if !next.HasFragment(r, i) {
					nd.Drop = append(nd.Drop, i)
				}
			}
		}
		d.MigrationBytes += nd.CopyBytes
		d.Nodes = append(d.Nodes, nd)
	}
	for c := 0; c < old.K; c++ {
		if !used[c] {
			d.Removed = append(d.Removed, c)
		}
	}
	return d, nil
}

// ApplyDiff replays a migration plan on the old fragment placement and
// returns the resulting allocation (placement only — certified routing
// shares come from the solve, not the plan). ComputeDiff guarantees
// ApplyDiff(old, ComputeDiff(w, old, next)) reproduces next's placement
// exactly; the service's property tests pin that round trip.
func ApplyDiff(old *model.Allocation, d *Diff) *model.Allocation {
	out := model.NewAllocation(len(d.Nodes))
	for _, nd := range d.Nodes {
		var frags []int
		if nd.From >= 0 {
			drop := make(map[int]bool, len(nd.Drop))
			for _, i := range nd.Drop {
				drop[i] = true
			}
			for _, i := range old.Fragments[nd.From] {
				if !drop[i] {
					frags = append(frags, i)
				}
			}
		}
		frags = append(frags, nd.Copy...)
		sort.Ints(frags)
		out.Fragments[nd.Node] = frags
	}
	return out
}
