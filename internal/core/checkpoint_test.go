package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/faultinject"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
)

// crashWorkload is the deterministic instance every crash-resume test (and
// the subprocess helper) solves: small enough that each full solve proves
// optimality in well under a second, decomposed enough that the journal
// accumulates several generations before completion.
func crashWorkload() (*model.Workload, *ChunkSpec) {
	rng := rand.New(rand.NewSource(5))
	w := randomWorkload(rng, 16, 12)
	spec, err := ParseChunks("2+2")
	if err != nil {
		panic(err)
	}
	return w, spec
}

// checkpointedRun solves crashWorkload journaling into dir on fsys (nil:
// the real file system). resume loads the existing journal first.
func checkpointedRun(t *testing.T, dir string, fsys checkpoint.FS, resume bool) (*Result, error) {
	t.Helper()
	w, spec := crashWorkload()
	if fsys == nil {
		fsys = checkpoint.OS
	}
	st, err := checkpoint.OpenFS(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	var prev *checkpoint.Snapshot
	if resume {
		if prev, err = st.Load(); err != nil {
			t.Fatal(err)
		}
	}
	rec := checkpoint.NewRecorder(st, prev)
	// Parallelism 1 keeps the kill's panic on the driving goroutine, so an
	// in-process test can recover it like a crash.
	return Allocate(w, nil, 4, Options{Chunks: spec, Parallelism: 1, Checkpoint: rec})
}

// journalWrite is the fault act at the n-th write of a solve journal.
func journalWrite(n int, act faultinject.Act) faultinject.Fault {
	return faultinject.Fault{Op: faultinject.Write, Path: "gen-*", N: n, Act: act}
}

// runKilled runs a checkpointed solve expecting fault to kill it; it
// recovers the simulated process death.
func runKilled(t *testing.T, dir string, fault faultinject.Fault) {
	t.Helper()
	fsys := faultinject.NewFS(checkpoint.OS, fault)
	defer func() {
		if r := recover(); r != nil && r != faultinject.ErrKilled {
			panic(r)
		}
	}()
	res, err := checkpointedRun(t, dir, fsys, false)
	t.Fatalf("the fault never fired: res=%v err=%v after %d saves", res, err, fsys.Hits())
}

// requireSameResult asserts the two results describe bit-identical
// allocations: fragment placement, certified shares, and the W/V totals.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Allocation, want.Allocation) {
		t.Errorf("%s: allocation differs from the uninterrupted run", label)
	}
	if got.W != want.W || got.V != want.V {
		t.Errorf("%s: W/V = (%v, %v), want (%v, %v)", label, got.W, got.V, want.W, want.V)
	}
	if got.Exact != want.Exact || got.Outcomes != want.Outcomes {
		t.Errorf("%s: outcomes %+v exact=%v, want %+v exact=%v",
			label, got.Outcomes, got.Exact, want.Outcomes, want.Exact)
	}
}

// TestCrashResumeBitIdentical is the acceptance test of DESIGN.md §3.9: kill
// the run right after each journal write in turn, resume from the journal,
// and require the final allocation bit-identical to the uninterrupted run —
// for every kill point.
func TestCrashResumeBitIdentical(t *testing.T) {
	w, spec := crashWorkload()
	base, err := Allocate(w, nil, 4, Options{Chunks: spec, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Exact {
		t.Fatal("crash workload must solve to proven optimality for bit-identity to be testable")
	}

	// Uninterrupted checkpointed run: journaling is pure observation, and
	// its write count enumerates the windows to kill in.
	counter := faultinject.NewFS(checkpoint.OS, journalWrite(0, faultinject.Kill))
	uninterrupted, err := checkpointedRun(t, t.TempDir(), counter, false)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "checkpointed uninterrupted", uninterrupted, base)
	saves := counter.Hits()
	if saves < 2 {
		t.Fatalf("only %d checkpoint saves; the decomposition should journal root and groups", saves)
	}

	for n := 1; n <= saves; n++ {
		dir := t.TempDir()
		runKilled(t, dir, journalWrite(n, faultinject.Kill))
		res, err := checkpointedRun(t, dir, nil, true)
		if err != nil {
			t.Fatalf("kill at save %d: resume: %v", n, err)
		}
		requireSameResult(t, "kill at save "+strconv.Itoa(n), res, base)
	}
}

// TestCrashResumeFromInFlightRecord kills the run right after its first
// journal write, which under a 1 ns MIP.CheckpointEvery is the root search
// journaling its incumbent: the journal then holds that search's feasible
// record and nothing else, and the resumed run re-solves the root from it
// instead of replaying it, and returns a valid allocation.
func TestCrashResumeFromInFlightRecord(t *testing.T) {
	w, spec := crashWorkload()
	dir := t.TempDir()
	st, err := checkpoint.OpenFS(faultinject.NewFS(checkpoint.OS, journalWrite(1, faultinject.Kill)), dir)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != nil && r != faultinject.ErrKilled {
				panic(r)
			}
		}()
		res, err := Allocate(w, nil, 4, Options{
			Chunks: spec, Parallelism: 1, Checkpoint: checkpoint.NewRecorder(st, nil),
			MIP: mip.Options{CheckpointEvery: time.Nanosecond},
		})
		t.Fatalf("the fault never fired: res=%v err=%v", res, err)
	}()

	if st, err = checkpoint.Open(dir); err != nil {
		t.Fatal(err)
	}
	prev, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec := prev.Subs["r"]; len(prev.Subs) != 1 || rec == nil || rec.Outcome != OutcomeFeasible || len(rec.Yes) == 0 {
		t.Fatalf("journal after the first save holds %d records, r's %+v; want r's feasible in-flight record alone", len(prev.Subs), rec)
	}
	var logs []string
	res, err := Allocate(w, nil, 4, Options{
		Chunks: spec, Parallelism: 1, Checkpoint: checkpoint.NewRecorder(st, prev),
		Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	solved := false
	for _, l := range logs {
		if strings.Contains(l, "replayed from checkpoint") {
			t.Errorf("the resumed run replayed a record: %q", l)
		}
		solved = solved || strings.HasPrefix(l, "core: split "+spec.String()+" solved")
	}
	if !solved {
		t.Errorf("the resumed run did not re-solve the root split %v; log:\n%s", spec, strings.Join(logs, "\n"))
	}
	checkFeasible(t, w, nil, res)
}

// TestResumeUnderAResolvedParent resumes a node-budgeted journal whose root
// record is feasible and some child record optimal, with no node budget: the
// root is solved again and hands its children other placements, so the
// child records no longer describe the children. They must not be replayed
// (a replayed one routed some query twice): the resumed allocation is
// valid. The budget is scanned because which one leaves such a journal is
// solver detail.
func TestResumeUnderAResolvedParent(t *testing.T) {
	w, spec := crashWorkload()
	moved := 0
	for _, nodes := range []int{34, 55, 89, 144, 233} {
		st, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Allocate(w, nil, 4, Options{
			Chunks: spec, Parallelism: 1, Checkpoint: checkpoint.NewRecorder(st, nil),
			MIP: mip.Options{MaxNodes: nodes},
		}); err != nil {
			t.Fatal(err)
		}
		prev, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		if prev.Subs["r"].Outcome == OutcomeOptimal ||
			prev.Subs["r.0"].Outcome != OutcomeOptimal && prev.Subs["r.1"].Outcome != OutcomeOptimal {
			continue
		}
		journaled := prev.Subs["r"].Yes
		rec := checkpoint.NewRecorder(st, prev)
		res, err := Allocate(w, nil, 4, Options{Chunks: spec, Parallelism: 1, Checkpoint: rec})
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(rec.Sub("r").Yes, journaled) {
			continue // the root landed where it was: its children still fit
		}
		moved++
		checkFeasible(t, w, nil, res)
	}
	if moved == 0 {
		t.Fatal("no scanned budget left a feasible root whose re-solve moved under an optimal child; adjust the scan")
	}
}

// TestCrashResumeTornWrite tears the newest generation mid-payload at the
// crash point: the resuming loader must reject it by CRC, fall back to the
// previous generation, and still reproduce the uninterrupted allocation.
func TestCrashResumeTornWrite(t *testing.T) {
	w, spec := crashWorkload()
	base, err := Allocate(w, nil, 4, Options{Chunks: spec, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	runKilled(t, dir, journalWrite(2, faultinject.Tear))

	// The newest generation on disk is torn; Load must fall back, not fail.
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.Load()
	if err != nil {
		t.Fatalf("loading around the torn generation: %v", err)
	}
	if snap == nil || len(snap.Subs) == 0 {
		t.Fatal("fallback generation is empty; the first save should have survived")
	}

	res, err := checkpointedRun(t, dir, nil, true)
	if err != nil {
		t.Fatalf("resume after torn write: %v", err)
	}
	requireSameResult(t, "torn write", res, base)
}

// TestJournalEIOKeepsTheAllocation fails the fsync of one journal write with
// EIO: the journal loses that generation, the solve loses nothing — the
// allocation is bit-identical to the unjournaled run's — and the recorder
// keeps the error for the end-of-run report.
func TestJournalEIOKeepsTheAllocation(t *testing.T) {
	w, spec := crashWorkload()
	base, err := Allocate(w, nil, 4, Options{Chunks: spec, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.OpenFS(faultinject.NewFS(checkpoint.OS, journalWrite(2, faultinject.EIO)), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := checkpoint.NewRecorder(st, nil)
	res, err := Allocate(w, nil, 4, Options{Chunks: spec, Parallelism: 1, Checkpoint: rec})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "EIO on journal write 2", res, base)
	if err := rec.SaveErr(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("SaveErr = %v, want the EIO of the failed write", err)
	}
}

// TestResumeReplaysWithoutSolver resumes from a completed journal under MIP
// options that cannot solve anything: every subproblem is journaled optimal,
// so the run must replay verbatim and never invoke the crippled solver.
func TestResumeReplaysWithoutSolver(t *testing.T) {
	dir := t.TempDir()
	uninterrupted, err := checkpointedRun(t, dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !uninterrupted.Exact {
		t.Fatal("journal must be fully optimal for this test")
	}

	w, spec := crashWorkload()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	// The run key e118db2 journaled for this instance, "-ab0" field included:
	// journals written by earlier commits must keep binding (Recorder.Bind
	// refuses any other key), so the key format is frozen.
	const e118db2RunKey = "w923a9afd998a5ea5-s259cc21b636faee8-k4-c2+2-a408f400000000000-f0-ab0"
	if prev.RunKey != e118db2RunKey {
		t.Fatalf("run key %q, want %q: journals written before this commit would be refused", prev.RunKey, e118db2RunKey)
	}
	rec := checkpoint.NewRecorder(st, prev)
	res, err := Allocate(w, nil, 4, Options{
		Chunks: spec, Parallelism: 1, Checkpoint: rec,
		MIP: faultedMIP(), // any real solve would degrade, breaking equality
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "replay", res, uninterrupted)
	if res.Outcomes.Degraded != 0 {
		t.Errorf("replay invoked the faulted solver: %+v", res.Outcomes)
	}
}

// TestResumeReplaysJournalWithRetiredFields: a completed journal carrying
// the fields older builds wrote — running W/V totals on the snapshot, a leaf
// flag and byte count on every record, a "mips" map of in-flight incumbent
// vectors — still binds and replays verbatim, to the allocation the journal
// without them replays to (TestResumeReplaysWithoutSolver), under MIP
// options that cannot solve anything.
func TestResumeReplaysJournalWithRetiredFields(t *testing.T) {
	dir := t.TempDir()
	uninterrupted, err := checkpointedRun(t, dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := st.LoadRaw()
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	var subs map[string]map[string]json.RawMessage
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(snap["subs"], &subs); err != nil {
		t.Fatal(err)
	}
	snap["v"], snap["w"] = json.RawMessage("1234.5"), json.RawMessage("0.30000000000000004")
	// An in-flight incumbent as builds before in-flight searches journaled
	// feasible records wrote it, under a subproblem the journal also holds.
	snap["mips"] = json.RawMessage(`{"r.0":{"x":[1,0,0.5]}}`)
	for _, sub := range subs {
		sub["leaf"], sub["bytes"] = json.RawMessage("true"), json.RawMessage("100.25")
	}
	if snap["subs"], err = json.Marshal(subs); err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	oldDir := t.TempDir()
	if st, err = checkpoint.Open(oldDir); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRaw(old); err != nil {
		t.Fatal(err)
	}
	prev, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	w, spec := crashWorkload()
	res, err := Allocate(w, nil, 4, Options{
		Chunks: spec, Parallelism: 1, Checkpoint: checkpoint.NewRecorder(st, prev),
		MIP: faultedMIP(), // any real solve would degrade, breaking equality
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "replay of a journal with retired fields", res, uninterrupted)
	if res.Outcomes.Degraded != 0 {
		t.Errorf("replay invoked the faulted solver: %+v", res.Outcomes)
	}
}

// TestDegradedOutcomesJournalRouting is the regression test for the export
// gap this PR fixes: degraded subproblems must journal their greedy routing
// (runnability and shares) like any other outcome, not just their
// DegradedDelta cost.
func TestDegradedOutcomesJournalRouting(t *testing.T) {
	w, spec := crashWorkload()
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := checkpoint.NewRecorder(st, nil)
	res, err := Allocate(w, nil, 4, Options{
		Chunks: spec, Parallelism: 1, Checkpoint: rec, MIP: faultedMIP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes.Degraded == 0 {
		t.Fatal("faulted pipeline produced no degraded subproblems")
	}
	snap, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for id, sub := range snap.Subs {
		if sub.Outcome != "degraded" {
			continue
		}
		degraded++
		if len(sub.Frags) == 0 {
			t.Errorf("degraded record %s journals no fragment sets", id)
		}
		if len(sub.Yes) == 0 {
			t.Errorf("degraded record %s journals no runnability rows", id)
		}
		if len(sub.Z) == 0 {
			t.Errorf("degraded record %s journals no routing shares", id)
		}
	}
	if degraded == 0 {
		t.Error("journal holds no degraded records despite degraded outcomes")
	}
}

// TestRecordClampsNonFinite journals a solution whose scalars and one route
// share are NaN or ±Inf, which JSON cannot encode: the save must succeed, the
// record must read back with those values as 0, and the solution's own
// scalars must keep their values.
func TestRecordClampsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		st, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sol := &solution{SubRecord: checkpoint.SubRecord{
			Outcome: OutcomeDegraded, L: v, Gap: v, ExtraBytes: v,
			Frags: [][]int{{0}, {1}},
			Yes:   []checkpoint.YesRow{{Q: 0, On: []bool{true, true}}},
			Z:     []checkpoint.Route{{Q: 0, S: 0, Shares: []float64{0.25, v}}},
		}}
		if err := checkpoint.NewRecorder(st, nil).RecordSub("r", recordFromSolution(sol)); err != nil {
			t.Fatalf("%v: save failed: %v", v, err)
		}
		snap, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		got := snap.Subs["r"]
		if got == nil || got.L != 0 || got.Gap != 0 || got.ExtraBytes != 0 ||
			len(got.Z) != 1 || !reflect.DeepEqual(got.Z[0].Shares, []float64{0.25, 0}) {
			t.Errorf("%v: journaled record %+v, want L, Gap, ExtraBytes and the share clamped to 0", v, got)
		}
		for name, x := range map[string]float64{"L": sol.L, "Gap": sol.Gap, "ExtraBytes": sol.ExtraBytes} {
			if math.Float64bits(x) != math.Float64bits(v) {
				t.Errorf("%v: the solution's %s became %v", v, name, x)
			}
		}
	}
}

// TestResumeRejectsForeignJournal resumes a journal against a different
// workload: the run-key check must refuse rather than replay records from
// another model.
func TestResumeRejectsForeignJournal(t *testing.T) {
	dir := t.TempDir()
	if _, err := checkpointedRun(t, dir, nil, false); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	rec := checkpoint.NewRecorder(st, prev)
	other := starWorkload(4, 10, 5)
	_, spec := crashWorkload()
	if _, err := Allocate(other, nil, 4, Options{Chunks: spec, Parallelism: 1, Checkpoint: rec}); err == nil {
		t.Fatal("Allocate accepted a journal written for a different workload")
	}
}

// TestCrashHelperProcess is the body TestCrashResumeSubprocess re-executes:
// it runs the checkpointed solve on an FS that kills with os.Exit after the
// given journal write, so the process dies SIGKILL-style — no deferred functions, no recover — with exit code
// 137. It is skipped unless the driver set its environment.
func TestCrashHelperProcess(t *testing.T) {
	dir := os.Getenv("FRAGALLOC_CRASH_DIR")
	if dir == "" {
		t.Skip("subprocess helper; driven by TestCrashResumeSubprocess")
	}
	killAt, err := strconv.Atoi(os.Getenv("FRAGALLOC_CRASH_KILL_AT"))
	if err != nil {
		t.Fatal(err)
	}
	fault := journalWrite(killAt, faultinject.Kill)
	fault.Exit = true
	res, err := checkpointedRun(t, dir, faultinject.NewFS(checkpoint.OS, fault), false)
	t.Fatalf("the fault never fired: res=%v err=%v", res, err)
}

// TestCrashResumeSubprocess crashes a real child process with os.Exit(137)
// after a journal write — the SIGKILL-equivalent death no in-process recover can
// soften — then resumes from its journal in this process and requires the
// uninterrupted allocation.
func TestCrashResumeSubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	w, spec := crashWorkload()
	base, err := Allocate(w, nil, 4, Options{Chunks: spec, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashHelperProcess$")
	cmd.Env = append(os.Environ(),
		"FRAGALLOC_CRASH_DIR="+dir,
		"FRAGALLOC_CRASH_KILL_AT=2",
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("helper process exited cleanly; the fault never fired:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running helper: %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 137 {
		t.Fatalf("helper exit code %d, want 137:\n%s", code, out)
	}

	res, err := checkpointedRun(t, dir, nil, true)
	if err != nil {
		t.Fatalf("resume after subprocess crash: %v", err)
	}
	requireSameResult(t, "subprocess crash", res, base)
}
