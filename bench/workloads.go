package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fragalloc/internal/accounting"
	"fragalloc/internal/core"
	"fragalloc/internal/eval"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
	"fragalloc/internal/service"
	"fragalloc/internal/tpcds"
)

// opProcs is GOMAXPROCS, and the Parallelism of solver, evaluator and daemon,
// while operations are timed: one. The box is two shared cores, and what runs
// beside the benchmark on it is not the benchmark's to choose. With one
// processor the Go runtime keeps mutator and collector on one thread, which
// the kernel moves to whichever core is free; with two, the collector's
// workers land on the contended core and the mutator waits for them. Measured
// with a 50%-duty hog pinned to one core, the quartile spread of
// accounting_cluster_k8's operations was 24% at GOMAXPROCS 2 / Parallelism 2,
// 34% at 2 / 1 and 12% at 1 / 1, and allocd_drift's across eight runs 22% at
// GOMAXPROCS 2 against 8.5% at 1. (The first sizing ran at 2 / 2, and the
// spread of op_ms across runs of one commit was 20–29% on every workload but
// the single-threaded tpcds_exact_k4. README.md, "Noise", has the rest.)
const opProcs = 1

// maxProcs is the GOMAXPROCS and Parallelism of the par_speedup probes of
// the traced run, the only place a second processor is asked for: the sizing
// machine has two cores, and numbers taken at another width do not compare.
const maxProcs = 2

// withMaxProcs runs fn at GOMAXPROCS maxProcs (or fewer, on a smaller
// machine) and restores opProcs.
func withMaxProcs(fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs)))
	fn()
}

type kind int

const (
	kindBatch kind = iota // workload JSON in → certified allocation JSON out
	kindDrift             // closed-loop drift updates against an in-process allocd
	kindFlood             // back-to-back unacknowledged-wait updates against allocd
)

// spec is one workload. All solver budgets are node budgets, never
// wall-clock limits, so the work — nodes, pivots, W/V — is bit-identical from
// run to run and only the clock varies.
type spec struct {
	name, why string
	kind      kind
	generator string // "tpcds" or "accounting"; both keep their canonical seed
	k         int
	chunks    string // "" = one flat exact solve
	fixed     int    // F, partial clustering
	mip       mip.Options

	observed int // in-sample scenarios (1 = the deterministic f_j = 1 scenario)
	reduceTo int // k-medoids representatives (0 = solve over the observed set)
	unseen   int // out-of-sample scenarios to evaluate (0 = no evaluation)

	observeProb float64 // allocd: share of updates that observe a new scenario

	// ungated keeps the workload out of BENCHMARK.json: `bench run` and
	// `bench trace` still run it, the driver does not gate on it.
	ungated bool

	ops    int     // operations of a full `bench run`
	opSecs float64 // allocd: cost of one update on the sizing machine; turns --seconds into a fixed count
}

var specs = []spec{
	{
		name: "tpcds_exact_k4",
		why:  "Paper Table 1a row: one big unclustered TPC-DS subproblem (cold primal root LP, B&B plunge, dive/trim); decomposition, reduction, evaluation and the service are bypassed.",
		kind: kindBatch, generator: "tpcds", k: 4,
		mip:      mip.Options{MaxNodes: 200, RelGap: 1e-3},
		observed: 1, ops: 8,
		// The driver's run budget fits three workloads at the run length
		// that keeps op_ms steady, and what this row exercises — cold primal
		// root, plunge, dive and trim — also runs inside the two 4+4 rows.
		ungated: true,
	},
	{
		name: "accounting_cluster_k8",
		why:  "Paper Table 2b row, Q=4461 with F=4361 clustered: ~90% warm dual re-solves on three 4+4 subproblems, then the evaluator on a big flow graph with few scenarios.",
		kind: kindBatch, generator: "accounting", k: 8, chunks: "4+4", fixed: 4361,
		mip:      mip.Options{MaxNodes: 300, MaxStallNodes: 150},
		observed: 1, unseen: 200, ops: 10,
	},
	{
		name: "tpcds_robust_r5",
		why:  "Paper Table 3a path: 400 observed scenarios reduced to 5, multi-scenario primal LPs and trim routing LPs, then a small flow graph evaluated on 10000 unseen scenarios.",
		kind: kindBatch, generator: "tpcds", k: 8, chunks: "4+4", fixed: 47,
		mip:      mip.Options{MaxNodes: 60, MaxStallNodes: 30},
		observed: 400, reduceTo: 5, unseen: 10000, ops: 8,
	},
	{
		name: "allocd_drift",
		why:  "The daemon's snapshot-solve-diff unit: one closed-loop writer waits for each adoption (ingest, two journal fsyncs, fold, warm re-solve, Hungarian diff, publish) beside a 20/s reader.",
		kind: kindDrift, generator: "tpcds", k: 4, chunks: "2+2", fixed: 64,
		mip:      mip.Options{MaxNodes: 60, MaxStallNodes: 30},
		observed: 4, reduceTo: 4, observeProb: 0.2, ops: 100, opSecs: 0.27,
	},
	{
		name: "allocd_flood",
		why:  "The service layer used the other way: updates acknowledged at journal-ack with solves coalesced away, so Apply, state marshal and checkpoint fsync carry the load.",
		kind: kindFlood, generator: "tpcds", k: 4, chunks: "2+2", fixed: 64,
		mip:      mip.Options{MaxNodes: 60, MaxStallNodes: 30},
		observed: 200, reduceTo: 4, observeProb: 0.05, ops: 3500, opSecs: 0.0061,
		// Two threads are busy by design — the ack path and the coalesced
		// solves behind it — so the rate is set by how two shared cores are
		// handed out: 20% and 27% quartile spread across runs of one commit.
		ungated: true,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// minOps keeps at least five samples behind every batch timing.
const minOps = 5

// sizeFor turns `measure --seconds` into a run size; a traced run is a third
// as long. A table row repeats one operation, so it is boxed by the clock:
// at least minOps operations (two when traced), and more until the time is
// up. An allocd workload replays a stream whose means depend on how far it
// got, so it gets a fixed count, from what one update cost on the sizing
// machine.
func (sp spec) sizeFor(seconds int, traced bool) (ops int, box time.Duration) {
	length := time.Duration(seconds) * time.Second
	if traced {
		length /= 3
	}
	if sp.kind == kindBatch {
		if traced {
			return 2, length
		}
		return minOps, length
	}
	return max(minOps, int(length.Seconds()/sp.opSecs)), 0
}

func (sp spec) chunkSpec() (*core.ChunkSpec, error) {
	if sp.chunks == "" {
		return nil, nil
	}
	return core.ParseChunks(sp.chunks)
}

func (sp spec) generate() *model.Workload {
	if sp.generator == "accounting" {
		return accounting.Workload()
	}
	return tpcds.Workload()
}

// inputs is everything set-up produces for one workload. The program under
// test receives only the files and, for allocd, the HTTP bodies; w and the
// scenario sets stay here for the checker.
type inputs struct {
	dir          string // holds the input JSON and, for allocd, the state directory
	w            *model.Workload
	observed     *model.ScenarioSet
	unseen       *model.ScenarioSet
	workloadPath string
	scenarioPath string

	daemon *daemon // allocd workloads only
}

// setUp generates the workload and its scenarios from the seeds and writes
// the input JSON under root; for allocd it also boots the daemon (New +
// Bootstrap). Its wall time is setup_s.
func setUp(sp spec, cfg runConfig, tr *tracer) (*inputs, error) {
	dir, err := os.MkdirTemp(cfg.root, sp.name+"-*")
	if err != nil {
		return nil, err
	}
	in := &inputs{dir: dir}
	op := tr.begin(0, "setup", -1)
	defer tr.end(op)

	tr.call(0, sp.generator+".generate", op, func() { in.w = sp.generate() })
	tr.call(0, "scenario.sample", op, func() {
		if sp.observed > 1 {
			in.observed = scenario.InSample(in.w, sp.observed, scenario.DefaultP, cfg.seed)
		} else {
			in.observed = model.DefaultScenario(in.w)
		}
		if sp.unseen > 0 {
			in.unseen = scenario.OutOfSample(in.w, sp.unseen, scenario.DefaultP, cfg.evalSeed+1000)
		}
	})
	in.workloadPath = filepath.Join(dir, "workload.json")
	in.scenarioPath = filepath.Join(dir, "scenarios.json")
	tr.call(0, "model.save", op, func() {
		if err = model.SaveJSON(in.workloadPath, in.w); err == nil {
			err = model.SaveJSON(in.scenarioPath, in.observed)
		}
	})
	if err != nil {
		return in, err
	}
	if sp.kind != kindBatch {
		in.daemon, err = bootDaemon(sp, in, cfg.seed, cfg.ops, tr, op)
	}
	return in, err
}

func (in *inputs) close() {
	if in == nil {
		return
	}
	if in.daemon != nil {
		in.daemon.stop()
	}
}

// solved is what one batch operation produced, kept for the checker and the
// per-layer counts.
type solved struct {
	res      *core.Result
	solveSet *model.ScenarioSet
	red      *scenario.Reduction
	js       []byte
	metrics  *eval.Metrics

	decode, reduce, allocate, encode time.Duration
	solve, evaluate                  time.Duration

	mallocs, allocBytes uint64 // heap objects and bytes of the operation; traced run only
}

// batchOp is one timed operation of a solve workload: workload and scenario
// JSON in → (reduce →) core.Allocate → validated allocation JSON out, then
// allocation + unseen set in → eval.Metrics out, both at the given
// Parallelism.
func batchOp(sp spec, in *inputs, opID, parallel int, tr *tracer) (*solved, error) {
	chunks, err := sp.chunkSpec()
	if err != nil {
		return nil, err
	}
	out := &solved{}
	root := tr.begin(opID, "op", -1)
	defer tr.end(root)

	start := time.Now()
	var w *model.Workload
	var ss *model.ScenarioSet
	out.decode = tr.call(opID, "model.decode", root, func() {
		if w, err = model.LoadWorkload(in.workloadPath); err == nil {
			ss, err = model.LoadScenarioSet(in.scenarioPath)
		}
	})
	if err != nil {
		return nil, err
	}
	out.solveSet = ss
	if sp.reduceTo > 0 {
		out.reduce = tr.call(opID, "scenario.reduce", root, func() {
			out.red, err = scenario.Reduce(w, ss, scenario.ReduceConfig{R: sp.reduceTo, Seed: 1})
		})
		if err != nil {
			return nil, err
		}
		out.solveSet = out.red.Reduced
	}
	out.allocate = tr.call(opID, "core.allocate", root, func() {
		out.res, err = core.Allocate(w, out.solveSet, sp.k, core.Options{
			Chunks: chunks, FixedQueries: sp.fixed, Parallelism: parallel, MIP: sp.mip, Canceled: sp.mip.Canceled,
		})
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	out.encode = tr.call(opID, "model.encode", root, func() {
		if err = out.res.Allocation.Validate(w); err == nil {
			err = model.WriteJSON(&buf, out.res.Allocation)
		}
	})
	if err != nil {
		return nil, err
	}
	out.js = buf.Bytes()
	out.solve = time.Since(start)

	if in.unseen != nil {
		out.evaluate = tr.call(opID, "eval.stream", root, func() {
			out.metrics, err = eval.EvaluateStream(w, out.res.Allocation, in.unseen, eval.StreamOptions{Parallelism: parallel})
		})
		if err != nil {
			return nil, err
		}
		if out.metrics.Unservable > 0 {
			return nil, fmt.Errorf("%d unseen scenario(s) cannot be served", out.metrics.Unservable)
		}
	}
	return out, nil
}

// serviceConfig is the daemon configuration of the allocd workloads.
func serviceConfig(sp spec, in *inputs, stateDir string) (service.Config, error) {
	chunks, err := sp.chunkSpec()
	if err != nil {
		return service.Config{}, err
	}
	return service.Config{
		Workload:     in.w,
		Scenarios:    in.observed,
		K:            sp.k,
		Chunks:       chunks,
		FixedQueries: sp.fixed,
		Parallelism:  opProcs,
		MIP:          sp.mip,
		ReduceTo:     sp.reduceTo,
		StateDir:     stateDir,
	}, nil
}
