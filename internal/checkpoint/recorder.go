package checkpoint

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultEvery is the default minimum interval between mid-MIP checkpoint
// saves. Subproblem completions always checkpoint immediately.
const DefaultEvery = 30 * time.Second

// Recorder is the journal the decomposition driver writes through: it holds
// the in-memory Snapshot, persists it through a Store on every record, and
// serves the journaled records back to a resuming run. Safe for concurrent
// use — parallel subproblem solves share one Recorder.
type Recorder struct {
	st    *Store
	every time.Duration

	mu      sync.Mutex
	snap    *Snapshot
	resumed bool
	saveErr error // last Save failure (journaling is best-effort; solves continue)
}

// NewRecorder wraps st. prev, when non-nil, is a loaded snapshot to resume
// from; every is the minimum interval between mid-MIP checkpoints (0 means
// DefaultEvery).
func NewRecorder(st *Store, prev *Snapshot, every time.Duration) *Recorder {
	if every <= 0 {
		every = DefaultEvery
	}
	snap := prev
	resumed := prev != nil
	if snap == nil {
		snap = &Snapshot{}
	}
	if snap.Subs == nil {
		snap.Subs = make(map[string]*SubRecord)
	}
	if snap.MIPs == nil {
		snap.MIPs = make(map[string]*MIPRecord)
	}
	return &Recorder{st: st, every: every, snap: snap, resumed: resumed}
}

// Recorder opens the store's journal: fresh, or with resume continuing from
// the newest loadable snapshot (fresh again when the directory holds none).
// An error means generations exist but none loads; what to do about that is
// the caller's policy.
func (st *Store) Recorder(resume bool, every time.Duration) (*Recorder, error) {
	var prev *Snapshot
	if resume {
		var err error
		if prev, err = st.Load(); err != nil {
			return nil, err
		}
	}
	return NewRecorder(st, prev, every), nil
}

// Every returns the mid-MIP checkpoint interval.
func (r *Recorder) Every() time.Duration { return r.every }

// Resumed reports whether the Recorder started from a loaded snapshot.
func (r *Recorder) Resumed() bool { return r.resumed }

// Bind validates the journal against the run's fingerprint and records it.
// A resumed snapshot whose RunKey differs describes a different model — its
// subproblem records would be silently wrong to replay — so Bind refuses.
func (r *Recorder) Bind(runKey string, v float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.snap.RunKey != "" && r.snap.RunKey != runKey {
		return fmt.Errorf("checkpoint: journal in %s was written by a different run (key %s, this run %s); use a fresh -checkpoint directory or matching inputs",
			r.st.Dir(), r.snap.RunKey, runKey)
	}
	r.snap.RunKey = runKey
	r.snap.V = v
	return nil
}

// Sub returns the journaled record for subproblem id, or nil. The returned
// record is shared — callers must treat it as read-only.
func (r *Recorder) Sub(id string) *SubRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snap.Subs[id]
}

// MIP returns the journaled in-flight MIP incumbent for subproblem id, or
// nil. Read-only, like Sub.
func (r *Recorder) MIP(id string) *MIPRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snap.MIPs[id]
}

// RecordSub journals a completed subproblem and checkpoints immediately.
// The subproblem's in-flight MIP record, if any, is dropped — the completed
// solution supersedes it — and the global W is recomputed from the
// completed exact groups. Save failures are returned for logging but leave
// the in-memory journal intact; the solve itself must not fail because the
// journal disk is unhappy.
func (r *Recorder) RecordSub(id string, rec *SubRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snap.Subs[id] = rec
	delete(r.snap.MIPs, id)
	// Sum in sorted key order: float addition does not commute in the last
	// bit, so folding in map iteration order would let the journaled W
	// drift between runs of the same solve — exactly the bit-drift the
	// resume path's consistency checks exist to catch.
	ids := make([]string, 0, len(r.snap.Subs))
	for sid := range r.snap.Subs {
		ids = append(ids, sid)
	}
	sort.Strings(ids)
	var w float64
	for _, sid := range ids {
		if s := r.snap.Subs[sid]; s.Leaf {
			w += s.Bytes
		}
	}
	r.snap.W = w
	return r.save()
}

// RecordMIP journals an in-flight MIP incumbent and checkpoints.
func (r *Recorder) RecordMIP(id string, rec *MIPRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snap.MIPs[id] = rec
	return r.save()
}

// save persists the current snapshot; the caller holds r.mu. Kill-point
// panics from a fault injector propagate — they simulate process death.
func (r *Recorder) save() error {
	if err := r.st.Save(r.snap); err != nil {
		r.saveErr = err
		return err
	}
	return nil
}

// Counts reports how many subproblem and in-flight MIP records the journal
// currently holds.
func (r *Recorder) Counts() (subs, mips int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.snap.Subs), len(r.snap.MIPs)
}

// Progress reports the journaled running totals: allocated bytes over
// completed exact groups (W) and the run's accessed data size (V).
func (r *Recorder) Progress() (w, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snap.W, r.snap.V
}

// SaveErr returns the most recent checkpoint-save failure, or nil.
func (r *Recorder) SaveErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.saveErr
}
