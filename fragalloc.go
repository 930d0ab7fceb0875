// Package fragalloc computes robust, memory-efficient fragment allocations
// for partially replicated databases. It is a from-scratch Go reproduction
// of Schlosser and Halfpap, "Robust and Memory-Efficient Database Fragment
// Allocation for Large and Uncertain Database Workloads" (EDBT 2021),
// including every substrate the paper depends on: a bounded-variable
// simplex and branch-and-bound MIP solver, the greedy baseline of Rabl and
// Jacobsen (SIGMOD 2017) with its Hungarian-merge extension, the LP
// decomposition approach of Halfpap and Schlosser (ICDE 2019), the paper's
// robust multi-scenario partial-clustering heuristic, allocation
// evaluators, and generators for the two evaluated workloads.
//
// # The problem
//
// A database is split into N disjoint fragments (typically one per column).
// A workload of Q queries must be load-balanced across K replica nodes; a
// query can only execute on a node that stores every fragment it accesses.
// The goal is a fragment-to-node assignment that lets every node carry
// exactly 1/K of the workload — in every anticipated workload scenario —
// while storing as little data as possible.
//
// # Quick start
//
//	w := fragalloc.TPCDSWorkload()
//	res, err := fragalloc.Allocate(w, nil, 4, fragalloc.Options{})
//	// res.Allocation: fragments per node + certified routing
//	// res.ReplicationFactor: W/V, how much more data than one copy
//
// Robustness against workload uncertainty (Section 4.2 of the paper):
//
//	in := fragalloc.InSampleScenarios(w, 10, fragalloc.DefaultPresence, 1)
//	res, err := fragalloc.Allocate(w, in, 8, fragalloc.Options{
//		Chunks:       fragalloc.MustParseChunks("4+4"),
//		FixedQueries: 47,
//	})
//	out := fragalloc.OutOfSampleScenarios(w, 100, fragalloc.DefaultPresence, 2)
//	m, err := fragalloc.Evaluate(w, res.Allocation, out)
//	// m.MeanGap: E(L̃) − 1/K, m.MeanThroughput: E((1/K)/L̃)
//
// The package is a facade: the examples (example_test.go) and downstream
// users need only this import, while the implementation lives in internal
// packages (model, core, greedy, eval, simplex, mip, ...).
package fragalloc

import (
	"fmt"
	"io"

	"fragalloc/internal/accounting"
	"fragalloc/internal/core"
	"fragalloc/internal/eval"
	"fragalloc/internal/greedy"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
	"fragalloc/internal/tpcds"
)

// Core data model. See the respective type documentation in internal/model.
type (
	// Workload is the model input: fragments and queries.
	Workload = model.Workload
	// Fragment is one disjoint piece of the database.
	Fragment = model.Fragment
	// Query accesses a set of fragments with a cost and default frequency.
	Query = model.Query
	// ScenarioSet holds S workload scenarios (frequency vectors).
	ScenarioSet = model.ScenarioSet
	// Allocation assigns fragments to nodes and records certified routing.
	Allocation = model.Allocation
)

// Allocation computation (the paper's approach).
type (
	// Options configure Allocate: chunked decomposition, partial
	// clustering, the α balance penalty, MIP budgets, and the worker-pool
	// width (Parallelism) for concurrent subproblem solves.
	Options = core.Options
	// Result is an allocation plus solve statistics (W/V, gaps, time).
	Result = core.Result
	// ChunkSpec describes the recursive decomposition ("4+4", "2+2+1", …).
	ChunkSpec = core.ChunkSpec
	// OutcomeCounts tallies per-subproblem solve outcomes (optimal /
	// feasible / degraded) under the failure policy.
	OutcomeCounts = core.OutcomeCounts
)

// ErrInfeasible marks inputs that admit no feasible allocation; match with
// errors.Is. Solver breakdowns never surface as errors — they degrade to the
// greedy allocator and are tallied in Result.Outcomes instead.
var ErrInfeasible = core.ErrInfeasible

// Metrics aggregates the worst-case load shares of an allocation over
// (unseen) scenarios.
type Metrics = eval.Metrics

// DefaultPresence is the paper's query-presence probability p = 0.75 for
// randomly diversified scenarios.
const DefaultPresence = scenario.DefaultP

// Allocate computes a robust fragment allocation with the paper's LP-based
// approach: model (3)–(7), optional recursive decomposition (opt.Chunks),
// and optional partial clustering (opt.FixedQueries). A nil scenario set
// means the workload's default frequencies as the single scenario.
func Allocate(w *Workload, ss *ScenarioSet, k int, opt Options) (*Result, error) {
	return core.Allocate(w, ss, k, opt)
}

// GreedyAllocate computes the baseline allocation of Rabl and Jacobsen for
// one frequency vector (nil means default frequencies).
func GreedyAllocate(w *Workload, freq []float64, k int) (*Allocation, error) {
	return greedy.Allocate(w, freq, k)
}

// GreedyMergeAllocate computes one greedy allocation per scenario and
// merges them pairwise with optimal (Hungarian) node mappings — the
// baseline's extension for multiple workloads.
func GreedyMergeAllocate(w *Workload, ss *ScenarioSet, k int) (*Allocation, error) {
	return greedy.AllocateScenarios(w, ss, k)
}

// FullReplication returns the trivial allocation storing every accessed
// fragment on every node (replication factor K); the robustness upper
// bound the paper compares against.
func FullReplication(w *Workload, k int) *Allocation {
	alloc := model.NewAllocation(k)
	ids := w.AccessedFragments(nil)
	for node := 0; node < k; node++ {
		alloc.Fragments[node] = append([]int(nil), ids...)
	}
	return alloc
}

// Evaluate computes the worst-case load share L̃ of the allocation for every
// scenario in ss, plus the aggregate robustness metrics of the paper.
// Aggregates are weighted by ss.Weights when present (reduced sets) and are
// bit-identical at every parallelism level.
func Evaluate(w *Workload, alloc *Allocation, ss *ScenarioSet) (*Metrics, error) {
	return eval.Evaluate(w, alloc, ss)
}

// Streaming evaluation and scenario reduction (DESIGN.md §3.12).
type (
	// StreamOptions bounds EvaluateStream's worker pool and tolerance.
	StreamOptions = eval.StreamOptions
	// Reduction is a clustered scenario set: weighted representatives,
	// membership, and per-cluster deviation bounds.
	Reduction = scenario.Reduction
	// ReduceConfig parameterizes ReduceScenarios (R, seed).
	ReduceConfig = scenario.ReduceConfig
)

// EvaluateStream is Evaluate with an explicit worker pool: L̃ for every
// scenario with allocation-dependent state hoisted out of the loop and
// reused, bit-identical aggregates at every parallelism level.
func EvaluateStream(w *Workload, alloc *Allocation, ss *ScenarioSet, opt StreamOptions) (*Metrics, error) {
	return eval.EvaluateStream(w, alloc, ss, opt)
}

// ReduceScenarios clusters the scenario set with deterministic seeded
// k-medoids over normalized load-share vectors and returns weighted cluster
// representatives plus per-cluster deviation bounds: solving over
// Reduction.Reduced covers every member scenario to within Radius of its
// representative. R ≥ S yields the identity reduction.
func ReduceScenarios(w *Workload, ss *ScenarioSet, cfg ReduceConfig) (*Reduction, error) {
	return scenario.Reduce(w, ss, cfg)
}

// WorstLoad computes L̃ for a single frequency vector (the routing network's
// min cut: in closed form up to 10 nodes, by a max-flow search within 1e-9
// above). It returns +Inf if the allocation cannot serve the scenario.
func WorstLoad(w *Workload, alloc *Allocation, freq []float64) (float64, error) {
	return eval.WorstLoadFlow(w, alloc, freq, 1e-9)
}

// ExportLP writes the exact allocation MIP in CPLEX LP format with
// readable variable names, for cross-checking against external solvers
// (e.g. Gurobi, the paper's solver).
func ExportLP(out io.Writer, w *Workload, ss *ScenarioSet, k int, opt Options) error {
	return core.ExportLP(out, w, ss, k, opt)
}

// ParseChunks parses the paper's chunk notation, e.g. "6", "4+4", "2+2+1",
// or nested "(2+2)+(2+2)".
func ParseChunks(s string) (*ChunkSpec, error) { return core.ParseChunks(s) }

// MustParseChunks is ParseChunks panicking on error; for literals.
func MustParseChunks(s string) *ChunkSpec {
	spec, err := core.ParseChunks(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// TPCDSWorkload returns the canonical TPC-DS SF-1 workload: the real
// 24-table schema as N = 425 column fragments and Q = 94 synthesized query
// templates (Section 2.3.1 of the paper; see DESIGN.md for the
// substitution of measured inputs by a seeded generator).
func TPCDSWorkload() *Workload { return tpcds.Workload() }

// AccountingWorkload returns the canonical synthetic enterprise accounting
// workload: N = 344 column fragments, Q = 4461 templates with skewed
// frequencies and costs (Section 2.3.2 of the paper).
func AccountingWorkload() *Workload { return accounting.Workload() }

// NamedWorkload resolves the -workload/-in flag pair the commands share: the
// JSON file at path when given, else the canonical workload called name.
func NamedWorkload(name, path string) (*Workload, error) {
	switch {
	case path != "":
		return LoadWorkload(path)
	case name == "tpcds":
		return TPCDSWorkload(), nil
	case name == "accounting":
		return AccountingWorkload(), nil
	}
	return nil, fmt.Errorf("specify -workload tpcds|accounting or -in file.json")
}

// InSampleScenarios builds the S-scenario optimization input of Section
// 4.2: the deterministic baseline f=1 plus S−1 random diversifications with
// presence probability p.
func InSampleScenarios(w *Workload, s int, p float64, seed int64) *ScenarioSet {
	return scenario.InSample(w, s, p, seed)
}

// OutOfSampleScenarios samples unseen verification scenarios.
func OutOfSampleScenarios(w *Workload, count int, p float64, seed int64) *ScenarioSet {
	return scenario.OutOfSample(w, count, p, seed)
}

// SingleScenarioSet wraps one frequency vector as an S=1 scenario set.
func SingleScenarioSet(freq []float64) *ScenarioSet { return model.SingleScenario(freq) }

// LoadWorkload, SaveJSON et al. re-export the JSON persistence helpers.
func LoadWorkload(path string) (*Workload, error)       { return model.LoadWorkload(path) }
func LoadAllocation(path string) (*Allocation, error)   { return model.LoadAllocation(path) }
func LoadScenarioSet(path string) (*ScenarioSet, error) { return model.LoadScenarioSet(path) }
func SaveJSON(path string, v any) error                 { return model.SaveJSON(path, v) }
func SaveJSONWriter(w io.Writer, v any) error           { return model.WriteJSON(w, v) }
