package core

import (
	"fmt"
	"io"

	"fragalloc/internal/lpfile"
	"fragalloc/internal/model"
)

// ExportLP writes the exact allocation MIP — model (3)–(7) for K subnodes,
// including the partial clustering of opt.FixedQueries and the symmetry-
// breaking rows — in CPLEX LP format, with readable variable names
// (x_<fragment>_n<node>, y_<query>_n<node>, z_<query>_n<node>_s<scenario>,
// L). The export allows cross-checking this repository's solver against
// external ones such as Gurobi, which the reproduced paper used.
// Decomposition (opt.Chunks) is not reflected: the export is always the
// single flat model the decomposition approximates.
func ExportLP(out io.Writer, w *model.Workload, ss *model.ScenarioSet, k int, opt Options) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if ss == nil {
		ss = model.DefaultScenario(w)
	}
	if err := ss.Validate(w); err != nil {
		return err
	}
	if k <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", k)
	}
	if opt.Alpha == 0 {
		opt.Alpha = 1000
	}
	active := activeQueries(w, ss)
	if len(active) == 0 {
		return fmt.Errorf("core: no query carries load in any scenario")
	}
	fixed, flex, err := splitFixed(w, ss, active, opt.FixedQueries, k)
	if err != nil {
		return err
	}
	shares := make([][]float64, ss.S())
	for s := range shares {
		shares[s] = make([]float64, len(w.Queries))
		for _, j := range active {
			shares[s][j] = 1
		}
	}
	activeFrag := make([]bool, len(w.Fragments))
	for _, j := range active {
		for _, i := range w.Queries[j].Fragments {
			activeFrag[i] = true
		}
	}
	weights := make([]float64, k)
	for b := range weights {
		weights[b] = 1 / float64(k)
	}
	sp := &subproblem{
		w: w, ss: ss, costs: ss.TotalCosts(w), k: k,
		vNorm: w.AccessedDataSize(ss.Frequencies...), alpha: opt.Alpha,
		activeFrag: activeFrag, flexQ: flex, fixedQ: fixed, shares: shares,
		weights: weights, hasFixed: true,
	}
	p, ix, intVars := sp.build(true)

	names := make([]string, p.NumVars)
	fragName := func(i int) string {
		if n := w.Fragments[i].Name; n != "" {
			return sanitize(n)
		}
		return fmt.Sprintf("f%d", i)
	}
	queryName := func(j int) string {
		if n := w.Queries[j].Name; n != "" {
			return sanitize(n)
		}
		return fmt.Sprintf("q%d", j)
	}
	for fi, i := range ix.frags {
		for b, col := range ix.x[fi] {
			names[col] = fmt.Sprintf("x_%s_n%d", fragName(i), b)
		}
	}
	//fragvet:ignore rangemaporder — each column index is assigned exactly one name; names[col] writes are disjoint across keys
	for j, cols := range ix.y {
		for b, col := range cols {
			names[col] = fmt.Sprintf("y_%s_n%d", queryName(j), b)
		}
	}
	//fragvet:ignore rangemaporder — each column index is assigned exactly one name; names[col] writes are disjoint across keys
	for key, cols := range ix.z {
		for b, col := range cols {
			names[col] = fmt.Sprintf("z_%s_n%d_s%d", queryName(key[0]), b, key[1])
		}
	}
	names[ix.l] = "L"

	return lpfile.Write(out, p, intVars, names)
}

// sanitize maps arbitrary workload names onto the LP-format identifier
// alphabet.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
