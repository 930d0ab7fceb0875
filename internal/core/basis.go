package core

import (
	"fmt"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/mip"
	"fragalloc/internal/simplex"
)

// This file is how a subproblem hands an optimal simplex basis on from one
// solve to the next solve of the same subproblem id, through the journal, by
// the role build records with each column and row (journalBasis,
// carriedBasis; DESIGN.md §3.11). The MIP root takes the dive's root basis
// as it stands, since both solve one LP (subproblem.solve).

// BasisStarts counts the LPs of a run that started from a basis instead of
// cold, summed over its subproblem solves: the MIP roots and popped
// branch-and-bound nodes of mip.Starts (DESIGN.md §3.10), and the dive
// roots, which start from the basis a previous run journaled under their
// subproblem id (Options.Checkpoint, Recorder.Carry; DESIGN.md §3.11). Each
// *Cold field counts the starts from a basis that were refused, or that the
// simplex ladder restarted, and so were solved cold.
type BasisStarts struct {
	mip.Starts
	Dives     int `json:"dives"`
	DivesCold int `json:"dives_cold"`
}

func (b *BasisStarts) add(o BasisStarts) {
	b.Roots += o.Roots
	b.RootsCold += o.RootsCold
	b.Nodes += o.Nodes
	b.NodesCold += o.NodesCold
	b.Dives += o.Dives
	b.DivesCold += o.DivesCold
}

// String is the form the per-split progress line prints: per kind of LP,
// the starts from a basis that stood and those solved cold.
func (b BasisStarts) String() string {
	return fmt.Sprintf("starts from basis/cold: root %d/%d, nodes %d/%d, dive %d/%d",
		b.Roots, b.RootsCold, b.Nodes, b.NodesCold, b.Dives, b.DivesCold)
}

// The kinds of the roles that name a subproblem model's columns and rows in
// a journaled basis (checkpoint.Role[0], followed by the indices noted).
// Queries and fragments are named by ID, so a role keeps naming the same
// variable when the set of queries a subproblem routes changes between two
// solves.
const (
	roleX        int32 = iota // fragment ID, subnode
	roleY                     // query ID, subnode
	roleZ                     // query ID, scenario, subnode
	roleL                     // the load limit
	roleCover                 // row (4): query ID, subnode
	roleLink                  // row (5): query ID, scenario, subnode
	roleBalance               // row (6): subnode, scenario
	roleConserve              // row (7): query ID, scenario
)

// journalBasis names basis b of the model ix lays out by role.
func journalBasis(b *simplex.Basis, ix *indices) *checkpoint.Basis {
	out := &checkpoint.Basis{}
	for j, st := range b.Cols {
		switch st {
		case simplex.Basic:
			out.Basic = append(out.Basic, ix.cols[j])
		case simplex.AtUpper:
			out.Upper = append(out.Upper, ix.cols[j])
		}
	}
	for r, st := range b.Rows {
		if st != simplex.Basic {
			out.Tight = append(out.Tight, ix.rows[r])
		}
	}
	return out
}

// carriedBasis maps a journaled basis onto the model ix lays out. A column
// or row the journal names takes its journaled status; the others take the
// journal's defaults — a column nonbasic at its natural bound, a row with
// its slack basic, the textbook start for a column or row added to a model
// — and SolveFrom repairs what that leaves. It returns nil when cb is nil
// or names no basic column of the model.
func carriedBasis(cb *checkpoint.Basis, ix *indices) *simplex.Basis {
	if cb == nil {
		return nil
	}
	n := len(ix.cols)
	at := make(map[checkpoint.Role]int, n+len(ix.rows))
	for j, r := range ix.cols {
		at[r] = j
	}
	for i, r := range ix.rows {
		at[r] = n + i
	}
	b := &simplex.Basis{Cols: make([]simplex.BasisStatus, n), Rows: make([]simplex.BasisStatus, len(ix.rows))}
	matched := false
	for _, r := range cb.Basic {
		if j, ok := at[r]; ok && j < n {
			b.Cols[j], matched = simplex.Basic, true
		}
	}
	if !matched {
		return nil
	}
	for _, r := range cb.Upper {
		if j, ok := at[r]; ok && j < n {
			b.Cols[j] = simplex.AtUpper
		}
	}
	for r := range b.Rows {
		b.Rows[r] = simplex.Basic
	}
	for _, r := range cb.Tight {
		if i, ok := at[r]; ok && i >= n {
			b.Rows[i-n] = simplex.AtLower
		}
	}
	return b
}
