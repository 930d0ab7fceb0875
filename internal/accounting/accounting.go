// Package accounting synthesizes the enterprise accounting workload of
// Section 2.3.2 of the reproduced paper: a single central accounting table
// with N = 344 columns, queried by Q = 4461 SQL templates whose frequencies
// and costs form the heavily skewed distribution of Figure 1b (the top-50
// templates carry more than 92 % of the total load).
//
// The paper's input is proprietary metadata of an SAP-style accounting
// table (the published artifact is anonymized metadata as well). This
// package reproduces its statistical shape deterministically:
//
//   - column sizes follow a lognormal distribution (a mix of short codes,
//     dates, amounts, and long text fields over tens of millions of rows),
//   - a small set of "core" columns (document number, company code, fiscal
//     year, posting date, amount, ...) appears in almost every template,
//     while the remaining columns follow a Zipf popularity law,
//   - template frequencies are Zipf-distributed and costs lognormal, which
//     together yield the required load skew.
//
// DESIGN.md documents this substitution.
package accounting

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"fragalloc/internal/model"
)

// Shape constants matching the paper's workload statistics.
const (
	// NumColumns is the paper's N for the accounting table.
	NumColumns = 344
	// NumQueries is the paper's Q (SQL templates in the trace summary).
	NumQueries = 4461
	// DefaultSeed produces the canonical workload used by the harness.
	DefaultSeed = 7
	// rows models the central table's cardinality.
	rows = 40_000_000
	// coreColumns is the number of always-hot key columns.
	coreColumns = 12
)

// Workload returns the canonical accounting workload (seed DefaultSeed).
func Workload() *model.Workload { return WorkloadSeed(DefaultSeed) }

// WorkloadSeed builds the accounting workload with a specific seed.
func WorkloadSeed(seed int64) *model.Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &model.Workload{
		Name:      "accounting",
		Fragments: make([]model.Fragment, 0, NumColumns),
		Queries:   make([]model.Query, 0, NumQueries),
	}

	// Column sizes: lognormal bytes-per-value around ~6 bytes (codes,
	// amounts, dates) with a long tail (text fields), times the row count.
	for i := 0; i < NumColumns; i++ {
		bytesPerValue := math.Exp(rng.NormFloat64()*0.9 + 1.8) // median ~6 B
		if bytesPerValue > 120 {
			bytesPerValue = 120
		}
		name := fmt.Sprintf("acct.c%03d", i)
		if i < coreColumns {
			// Core key columns are compact codes.
			bytesPerValue = 4 + rng.Float64()*6
			name = fmt.Sprintf("acct.key%02d", i)
		}
		w.Fragments = append(w.Fragments, model.Fragment{
			ID: i, Name: name, Size: bytesPerValue * rows,
		})
	}

	// Zipf popularity over the non-core columns (exponent ~1.1).
	zipf := rand.NewZipf(rng, 1.4, 1.5, NumColumns-coreColumns-1)

	// Costs follow their own heavy-tailed rank law, independent of the
	// frequency rank: the trace mixes cheap interactive lookups with rare
	// expensive reporting queries. The paper's Table 2b relies on this
	// shape — under f_j = 1 the 100 most expensive of the 4461 templates
	// carry about 95 % of the total cost, so the remaining 4361 can be
	// pinned to one of K nodes.
	costRank := rng.Perm(NumQueries)

	// A template's columns are marked in stamp as they are drawn and
	// collected in cols in draw order; both are reset once the template is
	// built, so no template allocates a set of its own.
	var stamp [NumColumns]bool
	cols := make([]int, 0, NumColumns)
	mark := func(c int) {
		if !stamp[c] {
			stamp[c] = true
			cols = append(cols, c)
		}
	}
	for j := 0; j < NumQueries; j++ {
		// 2-5 core columns: filters on company code / fiscal year / etc.
		nCore := 2 + rng.Intn(4)
		for len(cols) < nCore {
			mark(rng.Intn(coreColumns))
		}
		// Payload columns: the expensive reporting tier (low cost rank)
		// scans many and diverse columns — this is what makes the flexible
		// queries of Table 2b conflict on the nodes and forces replication
		// factors well above 1 — while the cheap interactive tier touches a
		// few popular ones.
		var nPayload int
		uniform := false
		if costRank[j] < 150 {
			nPayload = 10 + rng.Intn(30)
			uniform = rng.Float64() < 0.6
		} else {
			nPayload = 1 + rng.Intn(8)
		}
		for t := 0; t < nPayload; t++ {
			if uniform {
				mark(coreColumns + rng.Intn(NumColumns-coreColumns))
			} else {
				mark(coreColumns + int(zipf.Uint64()))
			}
		}
		slices.Sort(cols)
		frags := slices.Clone(cols)
		for _, c := range cols {
			stamp[c] = false
		}
		cols = cols[:0]

		// Frequencies: Zipf over the template rank with a random tie-break
		// so the rank order is not the ID order. Costs: lognormal per-
		// execution times, mildly correlated with the number of columns.
		rank := float64(j) + 1
		freq := 2e5 / math.Pow(rank, 1.05) * math.Exp(rng.NormFloat64()*0.7)
		if freq < 1 {
			freq = 1
		}
		freq = math.Round(freq)
		cost := 5000 / math.Pow(float64(costRank[j])+1, 1.6) *
			math.Exp(rng.NormFloat64()*0.8) * (1 + 0.05*float64(len(frags)))
		if cost < 0.01 {
			cost = 0.01
		}

		w.Queries = append(w.Queries, model.Query{
			ID:        j,
			Name:      fmt.Sprintf("t%04d", j),
			Fragments: frags,
			Cost:      cost,
			Frequency: freq,
		})
	}
	// Shuffle query order so template IDs do not encode the frequency rank.
	rng.Shuffle(len(w.Queries), func(a, b int) {
		w.Queries[a], w.Queries[b] = w.Queries[b], w.Queries[a]
		w.Queries[a].ID, w.Queries[b].ID = a, b
	})
	w.NormalizeQueryFragments()
	return w
}
