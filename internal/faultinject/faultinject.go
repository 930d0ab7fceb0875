// Package faultinject is deterministic fault injection for tests of the
// solver stack and of the journal under it. Its Injector implements
// simplex.FaultInjector, so a test can hand one instance to
// simplex.Options.Fault (directly, or through mip.Options.LP /
// core.Options.MIP.LP) and force refactorization failures, simplex stalls,
// and deadline expiry at chosen call indices — exercising every rung of the
// simplex recovery ladder and every degradation path of the decomposition
// driver by construction rather than by luck. Its FS, a checkpoint.FS, kills
// the process, tears a write, or fails one with EIO or ENOSPC at the N-th
// matching file-system event (DESIGN.md §3.7, §3.9).
//
// An Injector counts calls per hook and fires according to its Plan. All
// counters are mutex-protected: the decomposition driver shares one
// solver-options value (and therefore one injector) across parallel
// subproblem solves, and the fault-injection tests run under -race.
package faultinject

import (
	"errors"
	"math/rand"
	"sync"
)

// ErrKilled is the panic value an FS kills with when its Fault's Exit is
// unset. Crash tests recover it on the driving goroutine: everything below
// the recover point is abandoned mid-flight, as a real crash leaves it.
var ErrKilled = errors.New("faultinject: killed")

// Plan says at which call indices (0-based, per hook) an Injector fires.
// The zero value injects nothing.
type Plan struct {
	// RefactorFailures lists FailRefactor call indices that report failure.
	RefactorFailures []int
	// Stalls lists ForceStall call indices that report a stall.
	Stalls []int
	// CancelAfter, when > 0, makes the Canceled hook fire from its
	// CancelAfter-th call on (so 1 cancels immediately); 0 keeps
	// cancellation off.
	CancelAfter int
	// AllRefactors makes every FailRefactor call fail, regardless of
	// RefactorFailures. This is how a test drives the whole pipeline into
	// greedy degradation: no LP ever factorizes, so every rung of every
	// ladder fails.
	AllRefactors bool
	// RefactorEvery, when > 0, is the refactorization cadence of every
	// solver the injector is handed to (simplex.FaultInjector's
	// RefactorEvery): 1 refactorizes after every pivot, so a solve reaches
	// the failures planned for it within its first pivots. 0 keeps the
	// solver's default.
	RefactorEvery int
}

// Injector implements simplex.FaultInjector plus a Canceled hook. Safe for
// concurrent use.
type Injector struct {
	mu   sync.Mutex
	plan Plan

	refactorAt map[int]bool
	stallAt    map[int]bool

	refactors int
	stalls    int
	cancels   int
}

// New builds an Injector executing plan.
func New(plan Plan) *Injector {
	in := &Injector{
		plan:       plan,
		refactorAt: make(map[int]bool, len(plan.RefactorFailures)),
		stallAt:    make(map[int]bool, len(plan.Stalls)),
	}
	for _, i := range plan.RefactorFailures {
		in.refactorAt[i] = true
	}
	for _, i := range plan.Stalls {
		in.stallAt[i] = true
	}
	return in
}

// Always returns an Injector that fails every refactorization and has every
// pivot refactorize — the heaviest hammer: no LP in the pipeline can
// complete, so every solve path must degrade.
func Always() *Injector {
	return New(Plan{AllRefactors: true, RefactorEvery: 1})
}

// Seeded derives a Plan from a PRNG: within the first `horizon` calls of
// each hook, each index fails with probability p, and every pivot
// refactorizes, so the planned refactorization failures are reached. The
// same (seed, horizon, p) triple always yields the same plan, so seeded
// fault tests are exactly reproducible.
func Seeded(seed int64, horizon int, p float64) *Injector {
	rng := rand.New(rand.NewSource(seed))
	plan := Plan{RefactorEvery: 1}
	for i := 0; i < horizon; i++ {
		if rng.Float64() < p {
			plan.RefactorFailures = append(plan.RefactorFailures, i)
		}
	}
	for i := 0; i < horizon; i++ {
		if rng.Float64() < p {
			plan.Stalls = append(plan.Stalls, i)
		}
	}
	return New(plan)
}

// FailRefactor implements simplex.FaultInjector.
func (in *Injector) FailRefactor() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	i := in.refactors
	in.refactors++
	return in.plan.AllRefactors || in.refactorAt[i]
}

// ForceStall implements simplex.FaultInjector.
func (in *Injector) ForceStall() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	i := in.stalls
	in.stalls++
	return in.stallAt[i]
}

// RefactorEvery implements simplex.FaultInjector.
func (in *Injector) RefactorEvery() int { return in.plan.RefactorEvery }

// Canceled reports deadline expiry per the plan; hand it to
// simplex.Options.Canceled, mip.Options.Canceled or core.Options.Canceled.
// Each layer polls the one hook it is given: inside a search, mip replaces
// LP.Canceled with its own stop hook, which polls mip.Options.Canceled, so
// a plan's call indices count the stop checks of the layer it is handed to.
func (in *Injector) Canceled() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.CancelAfter <= 0 {
		return false
	}
	in.cancels++
	return in.cancels >= in.plan.CancelAfter
}
