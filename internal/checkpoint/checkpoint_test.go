package checkpoint

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// sampleSnapshot builds a snapshot exercising every journaled field,
// including values that must survive a JSON round-trip bit-for-bit.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		RunKey: "w0011223344556677-s8899aabbccddeeff-k4-c2x2-a3fd5555555555555-f0-ab5",
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
				Basis: &Basis{
					Basic: []Role{{1, 0, 0}, {2, 2, 1, 1}, {6, 1, 0}},
					Upper: []Role{{1, 2, 1}},
					Tight: []Role{{4, 0, 1}, {7, 2, 1}},
				},
			},
			"r.0": {
				Outcome:    "degraded",
				L:          19,
				Gap:        0.30000000000000004, // the float64 sum 0.1+0.2: must round-trip exactly
				ExtraBytes: 3.5,
				Frags:      [][]int{{1}},
				Yes:        []YesRow{{Q: 1, On: []bool{true}}},
				Z:          []Route{{Q: 1, S: 0, Shares: []float64{1}}},
			},
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
		snap.RunKey = strconv.Itoa(i)
		if err := st.Save(snap); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	gens, err := scanGenerations(st.fs, st.dir)
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
	if got.RunKey != "5" {
		t.Errorf("Load returned run key %q, want the newest generation's 5", got.RunKey)
	}

	// Reopening resumes the sequence rather than colliding with gen 5.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Save(sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	gens, err = scanGenerations(st2.fs, st2.dir)
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
	gens, err := scanGenerations(st.fs, st.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) == 0 {
		t.Fatal("no generations on disk")
	}
	return filepath.Join(dir, genName(gens[len(gens)-1]))
}

// twoGenerations writes two distinguishable snapshots and returns the dir;
// the older generation carries run key 1, the newer run key 2.
func twoGenerations(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		snap := sampleSnapshot()
		snap.RunKey = strconv.Itoa(i)
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
		if snap.RunKey != "1" {
			t.Fatalf("cut=%d: loaded run key %q, want fallback generation's 1", cut, snap.RunKey)
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
		if snap.RunKey != "1" {
			t.Fatalf("flip byte %d: loaded run key %q, want fallback generation's 1", i, snap.RunKey)
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

// tornFS writes only the first half of the data of the n-th file opened
// (1-based), the way a crash mid-write leaves it.
type tornFS struct {
	FS
	n, opens int
}

func (f *tornFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if f.opens++; err != nil || f.opens != f.n {
		return file, err
	}
	return halfFile{file}, nil
}

type halfFile struct{ File }

func (h halfFile) Write(p []byte) (int, error) {
	if _, err := h.File.Write(p[:len(p)/2]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestTornWriteFallsBack arranges a torn newest generation through a faulty
// FS and checks the loader falls back to the intact previous one.
func TestTornWriteFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFS(&tornFS{FS: OS, n: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	good := sampleSnapshot()
	good.RunKey = "1"
	if err := st.Save(good); err != nil {
		t.Fatal(err)
	}
	torn := sampleSnapshot()
	torn.RunKey = "2"
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
	if snap.RunKey != "1" {
		t.Errorf("loaded run key %q, want the intact previous generation's 1", snap.RunKey)
	}
}

func TestRecorderBindRejectsForeignKey(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prev := &Snapshot{RunKey: "key-a"}
	rec := NewRecorder(st, prev)
	if !rec.Resumed() {
		t.Error("Resumed() = false for a recorder built from a loaded snapshot")
	}
	if err := rec.Bind("key-b"); err == nil {
		t.Fatal("Bind accepted a journal written by a different run")
	}
	if err := rec.Bind("key-a"); err != nil {
		t.Fatalf("Bind rejected the matching key: %v", err)
	}
	// A recorder without a Store refuses the same way; its error has no
	// directory to name.
	if err := NewRecorder(nil, &Snapshot{RunKey: "key-a"}).Bind("key-b"); err == nil {
		t.Fatal("a Store-less recorder's Bind accepted a journal written by a different run")
	}
}

// TestRecorderJournal exercises the record/serve cycle: RecordSub persists,
// and a completed solve's record replaces the in-flight one journaled under
// the same id.
func TestRecorderJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(st, nil)
	if rec.Resumed() {
		t.Error("Resumed() = true for a fresh recorder")
	}
	if err := rec.Bind("key"); err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordSub("r.0", &SubRecord{Outcome: "feasible", L: 0.7}); err != nil {
		t.Fatal(err)
	}
	if s := rec.Sub("r.0"); s == nil || s.Outcome != "feasible" {
		t.Fatalf("Sub(r.0) = %+v, want the in-flight record", s)
	}
	if err := rec.RecordSub("r.0", &SubRecord{Outcome: "optimal", L: 0.6}); err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordSub("r.1", &SubRecord{Outcome: "optimal", L: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordSub("r", &SubRecord{Outcome: "optimal"}); err != nil {
		t.Fatal(err)
	}
	if s := rec.Sub("r.0"); s == nil || s.Outcome != "optimal" || s.L != 0.6 {
		t.Errorf("Sub(r.0) = %+v, want the completed record in place of the in-flight one", s)
	}
	if n := rec.Len(); n != 3 {
		t.Errorf("Len() = %d, want 3", n)
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
	rec2 := NewRecorder(st2, snap)
	if err := rec2.Bind("key"); err != nil {
		t.Fatalf("resumed Bind: %v", err)
	}
	if s := rec2.Sub("r.1"); s == nil || s.L != 0.4 {
		t.Fatalf("resumed Sub(r.1) = %+v, want the journaled record", s)
	}
}

// TestRecorderCarriesBases: the bases a run records with its subproblems
// come back by id (a record without one is left out), and the bases handed
// to a recorder are served by id without being journaled.
func TestRecorderCarriesBases(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(st, nil)
	if got := rec.Bases(); got != nil {
		t.Fatalf("Bases() of an empty journal = %v, want nil", got)
	}
	b := &Basis{Basic: []Role{{1, 2, 3}}, Tight: []Role{{4}}}
	if err := rec.RecordSub("r", &SubRecord{Outcome: "optimal", Basis: b}); err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordSub("r.0", &SubRecord{Outcome: "degraded"}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Bases(); !reflect.DeepEqual(got, map[string]*Basis{"r": b}) {
		t.Errorf("Bases() = %v, want r's alone", got)
	}
	carried := &Basis{Basic: []Role{{9}}}
	rec.Carry(map[string]*Basis{"r.1": carried})
	if got := rec.Carried("r.1"); got != carried {
		t.Errorf("Carried(r.1) = %v, want the carried basis", got)
	}
	if got := rec.Carried("r"); got != nil {
		t.Errorf("Carried(r) = %v, want nil", got)
	}
	snap, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := NewRecorder(nil, snap).Bases(); !reflect.DeepEqual(got, map[string]*Basis{"r": b}) {
		t.Errorf("journal holds bases %v, want r's alone", got)
	}
}

// TestLoadJournalWithRetiredMIPFields: a journal written when in-flight
// searches had a record kind of their own — a "mips" map of incumbent
// vectors, in its oldest form with the objective, root bound, node count and
// branching path too — loads and resumes with its subproblem records alone.
func TestLoadJournalWithRetiredMIPFields(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := `{"run_key":"k","v":2,"subs":{"r":{"outcome":"optimal","l":1,"gap":0,"nodes":3,"exact":true,"frags":[[0],[1]]}},` +
		`"mips":{"r.1":{"x":[1,0,0.5],"obj":18.125,"root_bound":16.5,"nodes":7,"path":[{"var":2,"lb":1,"ub":1}]}}}`
	if err := st.SaveRaw([]byte(old)); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Recorder(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Bind("k"); err != nil {
		t.Fatal(err)
	}
	if !rec.Resumed() || rec.Len() != 1 || rec.Sub("r") == nil || rec.Sub("r.1") != nil {
		t.Fatalf("resumed = %v, %d records, Sub(r) = %+v, Sub(r.1) = %+v; want r's record alone",
			rec.Resumed(), rec.Len(), rec.Sub("r"), rec.Sub("r.1"))
	}
}

// TestLoadJournalWithRetiredTotals: a journal written when the snapshot still
// carried the running W/V totals, and each record a leaf flag and a byte
// count, loads, binds under its run key, and serves its optimal record with
// every field a replay reads bit for bit.
func TestLoadJournalWithRetiredTotals(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := `{"run_key":"k","v":12345.678901234567,"w":0.30000000000000004,"subs":{"r.0":{"outcome":"optimal","l":0.9999999999999999,"gap":0,"nodes":3,"exact":true,"leaf":true,"bytes":100.25,"frags":[[0,2],[1]],"yes":[{"q":4,"on":[true,false]}],"z":[{"q":4,"s":0,"shares":[0.30000000000000004,0.7]}]}}}`
	if err := st.SaveRaw([]byte(old)); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Recorder(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Bind("k"); err != nil {
		t.Fatalf("Bind refused the retired journal's own run key: %v", err)
	}
	want := &SubRecord{
		Outcome: "optimal", L: 0.9999999999999999, Nodes: 3, Exact: true,
		Frags: [][]int{{0, 2}, {1}},
		Yes:   []YesRow{{Q: 4, On: []bool{true, false}}},
		Z:     []Route{{Q: 4, S: 0, Shares: []float64{0.30000000000000004, 0.7}}},
	}
	if got := rec.Sub("r.0"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sub(r.0) = %+v, want %+v", got, want)
	}
}
