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
	root, err := newRoot(w, ss, k, opt)
	if err != nil {
		return err
	}
	root.split(Flat(k))
	p, ix, intVars := root.build(true)

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
		for b := 0; b < k; b++ {
			names[ix.x(fi, b)] = fmt.Sprintf("x_%s_n%d", fragName(i), b)
		}
	}
	for q, j := range root.flexQ {
		for b := 0; b < k; b++ {
			names[ix.y(q, b)] = fmt.Sprintf("y_%s_n%d", queryName(j), b)
		}
	}
	for r, rt := range root.routes {
		for b := 0; b < k; b++ {
			names[ix.z(r, b)] = fmt.Sprintf("z_%s_n%d_s%d", queryName(rt.j), b, rt.s)
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
