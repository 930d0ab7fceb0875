package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/core"
	"fragalloc/internal/faultinject"
)

// crashConfig is the deterministic config the crash-restart suite runs in
// the parent, the baseline, and every killed subprocess: a chunked 2+2
// decomposition over the calibrated service workload, serial solves, tight
// backoff. Chunked solves journal one subproblem record per chunk, giving
// the crash sweep several distinct solve-journal writes inside each solve.
// fsys may be nil (the real file system).
func crashConfig(t testing.TB, dir string, fsys checkpoint.FS) Config {
	t.Helper()
	spec, err := core.ParseChunks("2+2")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Workload:    serviceWorkload(t),
		K:           4,
		Chunks:      spec,
		Parallelism: 1,
		StateDir:    dir,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		FS:          fsys,
	}
}

// runServiceFlow drives the canonical daemon lifetime the crash suite
// crashes at every structural point: boot (epoch 0), one drift update
// (epoch 1), re-optimize, adopt. It returns the bootstrap and final
// incumbents. Applying the drift is skipped when the journal already carries
// epoch 1 — frequency deltas are not idempotent, so a restarted flow must
// not re-apply them.
func runServiceFlow(t testing.TB, cfg Config) (boot, final *Incumbent) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	boot, _ = s.Incumbent()
	if s.Epoch() < 1 {
		if _, err := s.Apply(driftUpdate()); err != nil {
			t.Fatal(err)
		}
	}
	go s.Run(ctx)
	adopted, err := s.WaitEpoch(ctx, 1)
	if err != nil || !adopted {
		t.Fatalf("WaitEpoch(1) = (%v, %v), want adoption", adopted, err)
	}
	final, _ = s.Incumbent()
	return boot, final
}

// Which journal a file-system event belongs to: the state journal, or the
// per-epoch solve journals.
const (
	stateGens = "state/gen-*"
	solveGens = "solve/*/gen-*"
)

// writeFault kills after the n-th write to the journal whose generations
// match gens.
func writeFault(gens string, n int) faultinject.Fault {
	return faultinject.Fault{Op: faultinject.Write, Path: gens, N: n, Act: faultinject.Kill}
}

// faultFS is the faulty FS of a crash-suite subprocess: the fault the
// driving test passed in the named environment variable, as JSON, killing
// with os.Exit(137).
func faultFS(t testing.TB, env string) checkpoint.FS {
	t.Helper()
	var f faultinject.Fault
	if err := json.Unmarshal([]byte(os.Getenv(env)), &f); err != nil {
		t.Fatal(err)
	}
	f.Exit = true
	return faultinject.NewFS(checkpoint.OS, f)
}

// faultEnv is the environment entry that hands fault to a subprocess.
func faultEnv(t testing.TB, env string, fault faultinject.Fault) string {
	t.Helper()
	data, err := json.Marshal(fault)
	if err != nil {
		t.Fatal(err)
	}
	return env + "=" + string(data)
}

// TestServiceCrashHelperProcess is the subprocess body the crash suite
// kills: the canonical flow on a faulty FS whose fault comes from the
// environment. Every kill is os.Exit(137), SIGKILL-style.
func TestServiceCrashHelperProcess(t *testing.T) {
	dir := os.Getenv("SERVICE_CRASH_DIR")
	if dir == "" {
		t.Skip("subprocess helper; driven by TestServiceCrashRestart")
	}
	runServiceFlow(t, crashConfig(t, dir, faultFS(t, "SERVICE_CRASH_FAULT")))
	t.Fatalf("fault %s never fired", os.Getenv("SERVICE_CRASH_FAULT"))
}

// TestServiceCrashRestart is the crash-tolerance acceptance test: it kills a
// real daemon subprocess with exit 137 after every durable journal write of
// the canonical flow — each state-journal write (the boot adoption, the
// ingested update, the drift adoption) and each solve-journal write — then
// restarts in-process and requires that (a) whatever incumbent was journaled
// is served immediately, without solving, and (b) the interrupted flow
// resumes to the exact allocation an uninterrupted run produces. Each subtest
// is named for the window it kills in.
func TestServiceCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	// Uninterrupted baseline; the counting FSs learn how many writes each
	// journal takes, i.e. how many windows there are.
	solves := faultinject.NewFS(checkpoint.OS, writeFault(solveGens, 0))
	states := faultinject.NewFS(solves, writeFault(stateGens, 0))
	bootBase, finalBase := runServiceFlow(t, crashConfig(t, t.TempDir(), states))
	saves := solves.Hits()
	if saves < 4 {
		t.Fatalf("baseline flow performed only %d solve-journal saves; the ckpt sweep needs the 2+2 decomposition's per-chunk records", saves)
	}
	if n := states.Hits(); n != 3 {
		t.Fatalf("baseline wrote the state journal %d times, want 3 (boot adoption, ingest, drift adoption)", n)
	}

	type window struct {
		spec  string
		fault faultinject.Fault
	}
	specs := []window{
		{"service.ingest:1", writeFault(stateGens, 2)},
		{"service.publish:1", writeFault(stateGens, 1)},
		{"service.publish:2", writeFault(stateGens, 3)},
	}
	for n := 1; n <= saves; n++ {
		specs = append(specs, window{fmt.Sprintf("ckpt:%d", n), writeFault(solveGens, n)})
	}
	for _, w := range specs {
		spec := w.spec
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "TestServiceCrashHelperProcess$")
			cmd.Env = append(os.Environ(),
				"SERVICE_CRASH_DIR="+dir,
				faultEnv(t, "SERVICE_CRASH_FAULT", w.fault),
			)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("helper exited cleanly; the fault never fired:\n%s", out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("running helper: %v\n%s", err, out)
			}
			if code := ee.ExitCode(); code != 137 {
				t.Fatalf("helper exit code %d, want 137:\n%s", code, out)
			}

			// Restart on the crashed state directory with no faults. The
			// journaled incumbent must be served immediately — before any
			// solve (Attempts stays 0 through New).
			s, err := New(crashConfig(t, dir, nil))
			if err != nil {
				t.Fatalf("restart after %s: %v", spec, err)
			}
			restored, epoch := s.Incumbent()
			if st := s.Status(); st.Attempts != 0 {
				t.Fatalf("restart solved %d times before serving", st.Attempts)
			}
			if restored != nil {
				switch restored.Epoch {
				case 0:
					if !reflect.DeepEqual(restored.Allocation.Fragments, bootBase.Allocation.Fragments) {
						t.Fatal("restored boot incumbent differs from the uninterrupted baseline")
					}
				case 1:
					if !reflect.DeepEqual(restored.Allocation.Fragments, finalBase.Allocation.Fragments) {
						t.Fatal("restored drifted incumbent differs from the uninterrupted baseline")
					}
				default:
					t.Fatalf("restored incumbent has epoch %d, want 0 or 1", restored.Epoch)
				}
			}
			// The state-journal windows pin exactly which state must have
			// survived.
			switch spec {
			case "service.ingest:1":
				// The update was journaled before the kill: the restart
				// must see epoch 1 with the boot incumbent still serving.
				if restored == nil || restored.Epoch != 0 || epoch != 1 {
					t.Fatalf("after %s: incumbent %+v at epoch %d, want the boot incumbent at desired epoch 1", spec, restored, epoch)
				}
			case "service.publish:1":
				if restored == nil || restored.Epoch != 0 {
					t.Fatalf("after %s: incumbent %+v, want the journaled boot adoption", spec, restored)
				}
			case "service.publish:2":
				if restored == nil || restored.Epoch != 1 || epoch != 1 {
					t.Fatalf("after %s: incumbent %+v at epoch %d, want the journaled drift adoption", spec, restored, epoch)
				}
			}

			// Complete the interrupted flow: it must converge to the
			// uninterrupted baseline bit-for-bit — fragment placement and
			// certified routing shares.
			_, final := runServiceFlow(t, crashConfig(t, dir, nil))
			if final.Epoch != 1 {
				t.Fatalf("completed flow ended at epoch %d, want 1", final.Epoch)
			}
			if !reflect.DeepEqual(final.Allocation.Fragments, finalBase.Allocation.Fragments) {
				t.Fatalf("after %s, resumed allocation differs from the uninterrupted baseline:\n got %v\nwant %v",
					spec, final.Allocation.Fragments, finalBase.Allocation.Fragments)
			}
			if !reflect.DeepEqual(final.Allocation.Shares, finalBase.Allocation.Shares) {
				t.Fatalf("after %s, resumed routing shares differ from the uninterrupted baseline", spec)
			}
			// And so does the next epoch: it starts from the same bases.
			if !bytes.Equal(final.Bases, finalBase.Bases) {
				t.Fatalf("after %s, the resumed incumbent's bases differ from the uninterrupted baseline's", spec)
			}
		})
	}
}

// TestServiceStateJournalENOSPC pins what a full disk does to the state
// journal today: the write of an ingested update fails with ENOSPC, the
// failure is logged, the update is acknowledged, and the daemon keeps
// serving and adopts it, its next write landing. A restart on the directory
// between the failed write and the next one loads the newest generation
// that verified — the boot adoption, without the acknowledged update.
func TestServiceStateJournalENOSPC(t *testing.T) {
	dir := t.TempDir()
	cfg := crashConfig(t, dir, faultinject.NewFS(checkpoint.OS,
		faultinject.Fault{Op: faultinject.Write, Path: stateGens, N: 2, Act: faultinject.ENOSPC}))
	var mu sync.Mutex
	var logs []string
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if epoch, err := s.Apply(driftUpdate()); err != nil || epoch != 1 {
		t.Fatalf("Apply over a full disk = (%d, %v), want epoch 1 acknowledged", epoch, err)
	}
	mu.Lock()
	logged := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(logged, "journaling epoch 1 failed") || !strings.Contains(logged, syscall.ENOSPC.Error()) {
		t.Fatalf("the failed journal write was not logged:\n%s", logged)
	}

	restart := func() (*Incumbent, uint64) {
		t.Helper()
		r, err := New(crashConfig(t, dir, nil))
		if err != nil {
			t.Fatal(err)
		}
		return r.Incumbent()
	}
	if inc, epoch := restart(); inc == nil || inc.Epoch != 0 || epoch != 0 {
		t.Fatalf("a restart after the failed write serves %+v at desired epoch %d, want the boot adoption at epoch 0", inc, epoch)
	}

	done := make(chan struct{})
	go func() { defer close(done); s.Run(ctx) }()
	defer func() { cancel(); <-done }()
	if adopted, err := s.WaitEpoch(ctx, 1); err != nil || !adopted {
		t.Fatalf("WaitEpoch(1) = (%v, %v), want the daemon to keep serving and adopt", adopted, err)
	}
	waitCond(t, 60*time.Second, "the adoption to be journaled", func() bool {
		inc, epoch := restart()
		return inc != nil && inc.Epoch == 1 && epoch == 1
	})
}
