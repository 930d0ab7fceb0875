package core

import (
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"testing"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/faultinject"
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

// checkpointedRun solves crashWorkload journaling into dir, with fault (may
// be nil) installed on the store's write path. resume loads the existing
// journal first.
func checkpointedRun(t *testing.T, dir string, fault checkpoint.FaultInjector, resume bool) (*Result, error) {
	t.Helper()
	w, spec := crashWorkload()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fault != nil {
		st.SetFault(fault)
	}
	var prev *checkpoint.Snapshot
	if resume {
		if prev, err = st.Load(); err != nil {
			t.Fatal(err)
		}
	}
	rec := checkpoint.NewRecorder(st, prev, 0)
	// Parallelism 1 keeps the kill-point panic on the driving goroutine, so
	// an in-process test can recover it like a crash.
	return Allocate(w, nil, 4, Options{Chunks: spec, Parallelism: 1, Checkpoint: rec})
}

// runKilled runs a checkpointed solve expecting the injector's kill point to
// fire; it recovers the simulated process death and reports how many saves
// completed first.
func runKilled(t *testing.T, dir string, plan faultinject.Plan) {
	t.Helper()
	inj := faultinject.New(plan)
	defer func() {
		if r := recover(); r != nil && r != faultinject.ErrKilled {
			panic(r)
		}
	}()
	res, err := checkpointedRun(t, dir, inj, false)
	t.Fatalf("kill point never fired: res=%v err=%v after %d saves", res, err, inj.Saves())
}

// requireSameResult asserts the two results describe bit-identical
// allocations: fragment placement, certified shares, and the W/V totals.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Allocation, want.Allocation) {
		t.Errorf("%s: allocation differs from the uninterrupted run", label)
	}
	//fragvet:ignore floatcmp — resume contract: a resumed solve must reproduce W and V bit-identically (DESIGN §3.9)
	if got.W != want.W || got.V != want.V {
		t.Errorf("%s: W/V = (%v, %v), want (%v, %v)", label, got.W, got.V, want.W, want.V)
	}
	if got.Exact != want.Exact || got.Outcomes != want.Outcomes {
		t.Errorf("%s: outcomes %+v exact=%v, want %+v exact=%v",
			label, got.Outcomes, got.Exact, want.Outcomes, want.Exact)
	}
}

// TestCrashResumeBitIdentical is the acceptance test of DESIGN.md §3.9: kill
// the run right after each checkpoint save in turn, resume from the journal,
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
	// its save count enumerates the kill points to test.
	counter := faultinject.New(faultinject.Plan{})
	uninterrupted, err := checkpointedRun(t, t.TempDir(), counter, false)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "checkpointed uninterrupted", uninterrupted, base)
	saves := counter.Saves()
	if saves < 2 {
		t.Fatalf("only %d checkpoint saves; the decomposition should journal root and groups", saves)
	}

	for n := 1; n <= saves; n++ {
		dir := t.TempDir()
		runKilled(t, dir, faultinject.Plan{KillAtCheckpoint: n})
		res, err := checkpointedRun(t, dir, nil, true)
		if err != nil {
			t.Fatalf("kill at save %d: resume: %v", n, err)
		}
		requireSameResult(t, "kill at save "+strconv.Itoa(n), res, base)
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
	runKilled(t, dir, faultinject.Plan{TornWriteAtCheckpoint: 2})

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
	rec := checkpoint.NewRecorder(st, prev, 0)
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
	rec := checkpoint.NewRecorder(st, nil, 0)
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
	rec := checkpoint.NewRecorder(st, prev, 0)
	other := starWorkload(4, 10, 5)
	_, spec := crashWorkload()
	if _, err := Allocate(other, nil, 4, Options{Chunks: spec, Parallelism: 1, Checkpoint: rec}); err == nil {
		t.Fatal("Allocate accepted a journal written for a different workload")
	}
}

// TestCrashHelperProcess is the body TestCrashResumeSubprocess re-executes:
// it runs the checkpointed solve with an os.Exit kill point, so the process
// dies SIGKILL-style — no deferred functions, no recover — with exit code
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
	inj := faultinject.New(faultinject.Plan{KillAtCheckpoint: killAt, KillExit: true})
	res, err := checkpointedRun(t, dir, inj, false)
	t.Fatalf("kill point never fired: res=%v err=%v", res, err)
}

// TestCrashResumeSubprocess crashes a real child process with os.Exit(137)
// at a kill point — the SIGKILL-equivalent death no in-process recover can
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
		t.Fatalf("helper process exited cleanly; kill point never fired:\n%s", out)
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
