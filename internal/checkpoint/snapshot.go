package checkpoint

// Snapshot is the journaled solve state of one Allocate run: everything the
// decomposition driver needs to resume after a crash. Completed subproblems
// are recorded in full (outcome, incumbent routing, derived fragment sets),
// so an Optimal record replays verbatim without solver work; in-flight MIP
// searches additionally journal their best incumbent so a resumed run can
// warm-start instead of starting cold (the frontier itself is re-expanded
// from the root — only the incumbent is durable). Journals written before
// the snapshot shrank also carry running W/V totals, and a leaf flag and a
// byte count per record; nothing read them, and the decoder skips them.
type Snapshot struct {
	// RunKey fingerprints the model-shaping inputs (workload, scenarios, K,
	// chunk spec, α, clustering). A resume against a snapshot with a
	// different RunKey is refused: the journaled subproblems would describe a
	// different model.
	RunKey string `json:"run_key,omitempty"`
	// Subs maps deterministic subproblem IDs (the path through the chunk
	// spec tree) to completed solve records.
	Subs map[string]*SubRecord `json:"subs,omitempty"`
	// MIPs maps subproblem IDs to in-flight MIP incumbents; an entry is
	// dropped once its subproblem completes and moves to Subs.
	MIPs map[string]*MIPRecord `json:"mips,omitempty"`
}

// SubRecord is one completed subproblem solve: the decoded solution of
// internal/core, in a stable, JSON-codable shape. Optimal records are
// replayed verbatim on resume; Feasible and Degraded ones contribute their
// routing as a warm-start hint and are re-solved.
type SubRecord struct {
	// Outcome is the failure-policy classification: "optimal", "feasible",
	// or "degraded" (core.Outcome.String()).
	Outcome string  `json:"outcome"`
	L       float64 `json:"l"`
	Gap     float64 `json:"gap"`
	Nodes   int     `json:"nodes"`
	Exact   bool    `json:"exact"`
	// ExtraBytes is the degraded-solution replication cost beyond the
	// single-copy floor (zero for MIP solutions).
	ExtraBytes float64 `json:"extra_bytes,omitempty"`
	// Frags[b] is the sorted fragment set derived for subnode b.
	Frags [][]int `json:"frags"`
	// Yes records query runnability per subnode, ascending by query ID.
	Yes []YesRow `json:"yes,omitempty"`
	// Z records the routed shares per (query, scenario), ascending by
	// (query, scenario) — the full routing, including the rows of degraded
	// solutions, so no outcome class loses its routing in exports.
	Z []Route `json:"z,omitempty"`
	// Basis is the optimal basis of the subproblem's first LP, by role, for
	// the next solve of a related model to start from; nil for a degraded
	// solution and in journals written before bases were recorded.
	Basis *Basis `json:"basis,omitempty"`
}

// Basis is a simplex basis keyed by model role instead of by column and row
// index, so that it carries over to a related model whose columns and rows
// are laid out differently (DESIGN.md §3.11). What a role means is the
// journaling solver's business; the journal only stores them. Basic lists
// the basic columns and Upper the columns nonbasic at their upper bound;
// every other column is nonbasic at its natural bound. Tight lists the rows
// whose slack is nonbasic; every other row's slack is basic. These are the
// defaults a column or row the journaled model did not have starts from.
type Basis struct {
	Basic []Role `json:"basic"`
	Upper []Role `json:"upper,omitempty"`
	Tight []Role `json:"tight"`
}

// Role names one column or row of a model: a kind and up to three indices.
type Role [4]int32

// YesRow is one query's runnability vector over the subnodes.
type YesRow struct {
	Q  int    `json:"q"`
	On []bool `json:"on"`
}

// Route is one (query, scenario) pair's routed share per subnode.
type Route struct {
	Q      int       `json:"q"`
	S      int       `json:"s"`
	Shares []float64 `json:"shares"`
}

// MIPRecord is the warm-resume state of one in-flight branch-and-bound
// search: the incumbent solution vector. A resumed solve injects X as a
// starting proposal and re-expands the frontier from the root. Journals
// written before the record shrank carry the incumbent's objective, root
// bound, node count and branching path too; no resume ever read them, and
// the decoder skips the unknown fields.
type MIPRecord struct {
	X []float64 `json:"x"`
}
