package checkpoint

// Snapshot is the journaled solve state of one Allocate run: everything the
// decomposition driver needs to resume after a crash. Completed subproblems
// are recorded in full (outcome, incumbent routing, derived fragment sets),
// so an Optimal record replays verbatim without solver work; in-flight MIP
// searches additionally journal their best incumbent so a resumed run can
// warm-start instead of starting cold (the frontier itself is re-expanded
// from the root — only the incumbent is durable).
type Snapshot struct {
	// RunKey fingerprints the model-shaping inputs (workload, scenarios, K,
	// chunk spec, α, clustering). A resume against a snapshot with a
	// different RunKey is refused: the journaled subproblems would describe a
	// different model.
	RunKey string `json:"run_key,omitempty"`
	// V is the total accessed data size of the run; W is the running total
	// of allocated bytes over the completed exact-group subproblems. W/V is
	// the best-known replication factor at checkpoint time.
	V float64 `json:"v,omitempty"`
	W float64 `json:"w,omitempty"`
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
	// Leaf marks exact groups, whose subnodes are final nodes; Bytes is
	// their allocated data (the contribution to the global W).
	Leaf  bool    `json:"leaf,omitempty"`
	Bytes float64 `json:"bytes,omitempty"`
	// Frags[b] is the sorted fragment set derived for subnode b.
	Frags [][]int `json:"frags"`
	// Yes records query runnability per subnode, ascending by query ID.
	Yes []YesRow `json:"yes,omitempty"`
	// Z records the routed shares per (query, scenario), ascending by
	// (query, scenario) — the full routing, including the rows of degraded
	// solutions, so no outcome class loses its routing in exports.
	Z []Route `json:"z,omitempty"`
}

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
