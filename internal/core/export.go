package core

import (
	"fmt"
	"io"

	"fragalloc/internal/lpfile"
	"fragalloc/internal/model"
)

// ExportLP writes the exact allocation MIP — model (3)–(7) for K subnodes,
// including the partial clustering of opt.FixedQueries — in CPLEX LP format.
// Each column is named from the role build recorded for it:
// x_<fragment>_n<node>, y_<query>_n<node>, z_<query>_n<node>_s<scenario>
// and L; rows keep the writer's c<row>. The export allows cross-checking
// this repository's solver against external ones such as Gurobi, which the
// reproduced paper used. Decomposition (opt.Chunks) is not reflected: the
// export is always the single flat model the decomposition approximates.
func ExportLP(out io.Writer, w *model.Workload, ss *model.ScenarioSet, k int, opt Options) error {
	root, err := newRoot(w, ss, k, opt)
	if err != nil {
		return err
	}
	root.split(Flat(k))
	p, ix, intVars := root.build()

	fragName := entityNames(len(w.Fragments), func(i int) string { return w.Fragments[i].Name }, "f")
	queryName := entityNames(len(w.Queries), func(j int) string { return w.Queries[j].Name }, "q")
	names := make([]string, len(ix.cols))
	for c, r := range ix.cols {
		switch r[0] {
		case roleX:
			names[c] = fmt.Sprintf("x_%s_n%d", fragName[r[1]], r[2])
		case roleY:
			names[c] = fmt.Sprintf("y_%s_n%d", queryName[r[1]], r[2])
		case roleZ:
			names[c] = fmt.Sprintf("z_%s_n%d_s%d", queryName[r[1]], r[3], r[2])
		case roleL:
			names[c] = "L"
		}
	}
	return lpfile.Write(out, p, intVars, names)
}

// entityNames returns one LP identifier per fragment or query: its name
// sanitized, or prefix<i> when it has none. Sanitizing can map two names
// onto one ("orders.id", "orders_id"); each name that collides gets
// _<prefix><i> appended (and underscores, should even that be taken), so no
// two entities share a variable.
func entityNames(n int, name func(int) string, prefix string) []string {
	out := make([]string, n)
	count := make(map[string]int, n)
	for i := range out {
		if s := name(i); s != "" {
			out[i] = sanitize(s)
		} else {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		count[out[i]]++
	}
	used := make(map[string]bool)
	for i, s := range out {
		if count[s] == 1 {
			continue
		}
		s = fmt.Sprintf("%s_%s%d", s, prefix, i)
		for count[s] > 0 || used[s] {
			s += "_"
		}
		used[s] = true
		out[i] = s
	}
	return out
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
