package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// sampleSnapshot builds a snapshot exercising every journaled field,
// including values that must survive a JSON round-trip bit-for-bit.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		RunKey: "w0011223344556677-s8899aabbccddeeff-k4-c2x2-a3fd5555555555555-f0-ab5",
		V:      12345.678901234567,
		W:      0.1 + 0.2, // 0.30000000000000004 — must round-trip exactly
		Subs: map[string]*SubRecord{
			"r": {
				Outcome: "optimal",
				L:       17.25,
				Gap:     0,
				Nodes:   42,
				Exact:   false,
				Frags:   [][]int{{0, 1, 3}, {2}},
				Yes:     []YesRow{{Q: 0, On: []bool{true, false}}, {Q: 2, On: []bool{true, true}}},
				Z:       []Route{{Q: 0, S: 0, Shares: []float64{1, 0}}, {Q: 2, S: 1, Shares: []float64{0.5, 0.5}}},
			},
			"r.0": {
				Outcome:    "degraded",
				L:          19,
				Gap:        0.1,
				ExtraBytes: 3.5,
				Leaf:       true,
				Bytes:      100.25,
				Frags:      [][]int{{1}},
				Yes:        []YesRow{{Q: 1, On: []bool{true}}},
				Z:          []Route{{Q: 1, S: 0, Shares: []float64{1}}},
			},
		},
		MIPs: map[string]*MIPRecord{
			"r.1": {X: []float64{1, 0, 0.30000000000000004, 1}},
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleSnapshot()
	if err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestLoadEmptyDir(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.Load()
	if err != nil {
		t.Fatalf("empty dir: want (nil, nil), got err %v", err)
	}
	if snap != nil {
		t.Fatalf("empty dir: want nil snapshot, got %+v", snap)
	}
}

// TestGenerationsAndPruning saves several snapshots and checks that exactly
// the two newest generations survive on disk, the loader returns the newest,
// and a reopened store continues the generation sequence.
func TestGenerationsAndPruning(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		snap := sampleSnapshot()
		snap.W = float64(i)
		if err := st.Save(snap); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	gens, err := st.generations()
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{4, 5}; !reflect.DeepEqual(gens, want) {
		t.Errorf("generations after pruning: got %v, want %v", gens, want)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 5 {
		t.Errorf("Load returned W=%v, want the newest generation's 5", got.W)
	}

	// Reopening resumes the sequence rather than colliding with gen 5.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := sampleSnapshot()
	snap.W = 6
	if err := st2.Save(snap); err != nil {
		t.Fatal(err)
	}
	gens, err = st2.generations()
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{5, 6}; !reflect.DeepEqual(gens, want) {
		t.Errorf("generations after reopen+save: got %v, want %v", gens, want)
	}
}

// newestGen returns the path of the newest generation file in dir.
func newestGen(t *testing.T, dir string) string {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := st.generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) == 0 {
		t.Fatal("no generations on disk")
	}
	return filepath.Join(dir, genName(gens[len(gens)-1]))
}

// twoGenerations writes two distinguishable snapshots and returns the dir;
// the older generation carries W=1, the newer W=2.
func twoGenerations(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		snap := sampleSnapshot()
		snap.W = float64(i)
		if err := st.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestTruncationSweep truncates the newest generation at every length, from
// empty through one byte short of complete, and checks that the loader
// rejects it and falls back to the previous generation each time.
func TestTruncationSweep(t *testing.T) {
	dir := twoGenerations(t)
	name := newestGen(t, dir)
	full, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(name, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := st.Load()
		if err != nil {
			t.Fatalf("cut=%d: load: %v", cut, err)
		}
		if snap.W != 1 {
			t.Fatalf("cut=%d: loaded W=%v, want fallback generation's 1", cut, snap.W)
		}
	}
}

// TestBitFlipSweep flips one bit in every byte of the newest generation and
// checks the CRC (or header validation) rejects it, falling back to the
// previous generation.
func TestBitFlipSweep(t *testing.T) {
	dir := twoGenerations(t)
	name := newestGen(t, dir)
	full, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		corrupt := append([]byte(nil), full...)
		corrupt[i] ^= 1 << (i % 8)
		if err := os.WriteFile(name, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := st.Load()
		if err != nil {
			t.Fatalf("flip byte %d: load: %v", i, err)
		}
		if snap.W != 1 {
			t.Fatalf("flip byte %d: loaded W=%v, want fallback generation's 1", i, snap.W)
		}
	}
}

// TestAllGenerationsCorrupt corrupts both generations and expects Load to
// fail rather than fabricate state.
func TestAllGenerationsCorrupt(t *testing.T) {
	dir := twoGenerations(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); err == nil {
		t.Fatal("Load succeeded with every generation corrupt")
	}
}

// tornFault truncates the temp file before the Nth rename (1-based).
type tornFault struct {
	at    int
	saves int
}

func (f *tornFault) BeforeRename() bool {
	f.saves++
	return f.saves == f.at
}

func (f *tornFault) AfterSave() {}

// TestTornWriteFallsBack arranges a torn newest generation via the fault
// injector and checks the loader falls back to the intact previous one.
func TestTornWriteFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetFault(&tornFault{at: 2})
	good := sampleSnapshot()
	good.W = 1
	if err := st.Save(good); err != nil {
		t.Fatal(err)
	}
	torn := sampleSnapshot()
	torn.W = 2
	if err := st.Save(torn); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.W != 1 {
		t.Errorf("loaded W=%v, want the intact previous generation's 1", snap.W)
	}
}

func TestRecorderBindRejectsForeignKey(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prev := &Snapshot{RunKey: "key-a"}
	rec := NewRecorder(st, prev, 0)
	if !rec.Resumed() {
		t.Error("Resumed() = false for a recorder built from a loaded snapshot")
	}
	if err := rec.Bind("key-b", 1); err == nil {
		t.Fatal("Bind accepted a journal written by a different run")
	}
	if err := rec.Bind("key-a", 1); err != nil {
		t.Fatalf("Bind rejected the matching key: %v", err)
	}
}

// TestRecorderJournal exercises the record/serve cycle: RecordSub persists
// and recomputes W from leaf records, RecordMIP journals incumbents, and a
// completed subproblem drops its in-flight MIP record.
func TestRecorderJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(st, nil, 5*time.Second)
	if rec.Every() != 5*time.Second {
		t.Errorf("Every() = %v, want 5s", rec.Every())
	}
	if rec.Resumed() {
		t.Error("Resumed() = true for a fresh recorder")
	}
	if err := rec.Bind("key", 200); err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordMIP("r.0", &MIPRecord{X: []float64{1, 0}}); err != nil {
		t.Fatal(err)
	}
	if m := rec.MIP("r.0"); m == nil || !reflect.DeepEqual(m.X, []float64{1, 0}) {
		t.Fatalf("MIP(r.0) = %+v, want the journaled incumbent", m)
	}
	if err := rec.RecordSub("r.0", &SubRecord{Outcome: "optimal", Leaf: true, Bytes: 60}); err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordSub("r.1", &SubRecord{Outcome: "optimal", Leaf: true, Bytes: 40}); err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordSub("r", &SubRecord{Outcome: "optimal"}); err != nil {
		t.Fatal(err)
	}
	if m := rec.MIP("r.0"); m != nil {
		t.Errorf("MIP(r.0) survived its subproblem's completion: %+v", m)
	}
	if w, v := rec.Progress(); w != 100 || v != 200 {
		t.Errorf("Progress() = (%v, %v), want (100, 200): W sums leaf bytes only", w, v)
	}
	if subs, mips := rec.Counts(); subs != 3 || mips != 0 {
		t.Errorf("Counts() = (%d, %d), want (3, 0)", subs, mips)
	}
	if err := rec.SaveErr(); err != nil {
		t.Errorf("SaveErr() = %v, want nil", err)
	}

	// A second recorder resuming from disk serves the same records.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	rec2 := NewRecorder(st2, snap, 0)
	if err := rec2.Bind("key", 200); err != nil {
		t.Fatalf("resumed Bind: %v", err)
	}
	if s := rec2.Sub("r.1"); s == nil || s.Bytes != 40 {
		t.Fatalf("resumed Sub(r.1) = %+v, want the journaled record", s)
	}
	if w, _ := rec2.Progress(); w != 100 {
		t.Errorf("resumed Progress() W = %v, want 100", w)
	}
}

// TestRecorderWDeterministic pins the journaled W to a sorted-key fold.
// The leaf bytes are chosen so that float addition in any other order
// yields a different last bit (1e16 + 1 + -1e16 is 0 sorted, 1 otherwise);
// summing in map iteration order — the bug this test regresses — would
// make W flip between runs of the identical solve. Fresh maps each trial
// so Go's per-range iteration randomization gets every chance to reorder.
func TestRecorderWDeterministic(t *testing.T) {
	for trial := 0; trial < 32; trial++ {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(st, nil, 0)
		if err := rec.Bind("key", 1); err != nil {
			t.Fatal(err)
		}
		for id, bytes := range map[string]float64{"a": 1e16, "b": 1, "c": -1e16} {
			if err := rec.RecordSub(id, &SubRecord{Outcome: "optimal", Leaf: true, Bytes: bytes}); err != nil {
				t.Fatal(err)
			}
		}
		if w, _ := rec.Progress(); w != 0 {
			t.Fatalf("trial %d: W = %v, want 0 (sorted-order fold a,b,c)", trial, w)
		}
	}
}

// TestLoadJournalWithRetiredMIPFields: a journal written when the in-flight
// MIP record still carried the objective, root bound, node count and
// branching path loads, and hands a resume the one field it ever read.
func TestLoadJournalWithRetiredMIPFields(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := `{"run_key":"k","v":2,"mips":{"r.1":{"x":[1,0,0.5],"obj":18.125,"root_bound":16.5,"nodes":7,"path":[{"var":2,"lb":1,"ub":1}]}}}`
	if err := st.SaveRaw([]byte(old)); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Recorder(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := rec.MIP("r.1"); !rec.Resumed() || m == nil || !reflect.DeepEqual(m.X, []float64{1, 0, 0.5}) {
		t.Fatalf("resumed = %v, MIP(r.1) = %+v, want the journaled incumbent vector", rec.Resumed(), m)
	}
}
