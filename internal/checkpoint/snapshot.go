package checkpoint

// Snapshot is the journaled solve state of one Allocate run: everything the
// decomposition driver needs to resume after a crash. It holds one record
// per subproblem, in full (outcome, incumbent routing, derived fragment
// sets): an Optimal record replays verbatim without solver work, and a
// search still in flight journals the Feasible record of its incumbent, so
// a resumed run warm-starts from it instead of starting cold (the frontier
// itself is re-expanded from the root — only the incumbent is durable).
// Journals written before the snapshot shrank also carry running W/V
// totals, a leaf flag and a byte count per record, and a "mips" map of
// in-flight incumbent vectors; the decoder skips them.
type Snapshot struct {
	// RunKey fingerprints the model-shaping inputs (workload, scenarios, K,
	// chunk spec, α, clustering). A resume against a snapshot with a
	// different RunKey is refused: the journaled subproblems would describe a
	// different model.
	RunKey string `json:"run_key,omitempty"`
	// Subs maps deterministic subproblem IDs (the path through the chunk
	// spec tree) to solve records: a completed solve's, or the incumbent of
	// a search in flight.
	Subs map[string]*SubRecord `json:"subs,omitempty"`
}

// SubRecord is one subproblem solve, in a stable, JSON-codable shape.
// internal/core's solution embeds it, so what the solver decodes is what
// the journal stores. Optimal records are replayed verbatim on resume;
// Feasible and Degraded ones contribute their placement as a warm-start
// hint and are re-solved. A search in flight journals a Feasible record of
// its incumbent, with zero Gap and Nodes, which its completed solve
// replaces.
type SubRecord struct {
	// Outcome is the failure-policy classification: "optimal", "feasible",
	// or "degraded" (core's OutcomeOptimal, OutcomeFeasible and
	// OutcomeDegraded).
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
