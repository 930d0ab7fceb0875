package checkpoint

import (
	"fmt"
	"maps"
	"sync"
)

// Recorder is the journal the decomposition driver writes through: it holds
// the in-memory Snapshot, persists it through a Store on every record, and
// serves the journaled records back to a resuming run. Without a Store it
// keeps the records in memory only. Safe for concurrent use — parallel
// subproblem solves share one Recorder.
type Recorder struct {
	st *Store // nil: the journal lives in memory only

	mu      sync.Mutex
	snap    *Snapshot
	resumed bool
	saveErr error // last Save failure (journaling is best-effort; solves continue)
	// carried holds the bases a previous run recorded, by subproblem id,
	// for this run's solves to start from (Carry); it is not journaled here.
	carried map[string]*Basis
}

// NewRecorder wraps st; a nil st journals in memory only. prev, when
// non-nil, is a loaded snapshot to resume from.
func NewRecorder(st *Store, prev *Snapshot) *Recorder {
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
	return &Recorder{st: st, snap: snap, resumed: resumed}
}

// Recorder opens the store's journal: fresh, or with resume continuing from
// the newest loadable snapshot (fresh again when the directory holds none).
// An error means generations exist but none loads; what to do about that is
// the caller's policy.
func (st *Store) Recorder(resume bool) (*Recorder, error) {
	var prev *Snapshot
	if resume {
		var err error
		if prev, err = st.Load(); err != nil {
			return nil, err
		}
	}
	return NewRecorder(st, prev), nil
}

// Resumed reports whether the Recorder started from a loaded snapshot.
func (r *Recorder) Resumed() bool { return r.resumed }

// Bind validates the journal against the run's fingerprint and records it.
// A resumed snapshot whose RunKey differs describes a different model — its
// subproblem records would be silently wrong to replay — so Bind refuses.
func (r *Recorder) Bind(runKey string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.snap.RunKey != "" && r.snap.RunKey != runKey {
		return fmt.Errorf("checkpoint: journal in %s was written by a different run (key %s, this run %s); use a fresh -checkpoint directory or matching inputs",
			r.st.Dir(), r.snap.RunKey, runKey)
	}
	r.snap.RunKey = runKey
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

// Carry hands the run the bases a previous run recorded (Bases), by
// subproblem id. They are starting points only: nothing journals them
// again unless a solve records its own.
func (r *Recorder) Carry(bases map[string]*Basis) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.carried = maps.Clone(bases)
}

// Carried returns the basis carried for subproblem id, or nil. Read-only,
// like Sub.
func (r *Recorder) Carried(id string) *Basis {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.carried[id]
}

// Bases returns the basis of every journaled subproblem record that has
// one, by id; nil when none has.
func (r *Recorder) Bases() map[string]*Basis {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out map[string]*Basis
	for id, rec := range r.snap.Subs {
		if rec.Basis == nil {
			continue
		}
		if out == nil {
			out = make(map[string]*Basis)
		}
		out[id] = rec.Basis
	}
	return out
}

// RecordSub journals a completed subproblem and checkpoints immediately.
// The subproblem's in-flight MIP record, if any, is dropped — the completed
// solution supersedes it. Save failures are returned for logging but leave
// the in-memory journal intact; the solve itself must not fail because the
// journal disk is unhappy.
func (r *Recorder) RecordSub(id string, rec *SubRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snap.Subs[id] = rec
	delete(r.snap.MIPs, id)
	return r.save()
}

// RecordMIP journals an in-flight MIP incumbent and checkpoints.
func (r *Recorder) RecordMIP(id string, rec *MIPRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snap.MIPs[id] = rec
	return r.save()
}

// save persists the current snapshot, if the Recorder has a Store; the
// caller holds r.mu. Kill-point panics from a fault injector propagate —
// they simulate process death.
func (r *Recorder) save() error {
	if r.st == nil {
		return nil
	}
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

// SaveErr returns the most recent checkpoint-save failure, or nil.
func (r *Recorder) SaveErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.saveErr
}
