package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"

	"fragalloc/internal/core"
	"fragalloc/internal/faultinject"
)

// crashConfig is the deterministic config the crash-restart suite runs in
// the parent, the baseline, and every killed subprocess: a chunked 2+2
// decomposition over the calibrated service workload, serial solves, tight
// backoff. Chunked solves journal one subproblem record per chunk, giving
// the checkpoint kill points several distinct indices inside each solve.
func crashConfig(t testing.TB, dir string, fault *faultinject.Injector) Config {
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
		Fault:       fault,
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

// TestServiceCrashHelperProcess is the subprocess body the crash suite
// kills: the canonical flow with a faultinject.ParseKillSpec kill plan from
// the environment — "service.ingest:N" / "service.publish:N" for the
// service-loop kill points, "ckpt:N" for the Nth solve-journal save. Every
// kill is os.Exit(137), SIGKILL-style.
func TestServiceCrashHelperProcess(t *testing.T) {
	dir := os.Getenv("SERVICE_CRASH_DIR")
	if dir == "" {
		t.Skip("subprocess helper; driven by TestServiceCrashRestart")
	}
	spec := os.Getenv("SERVICE_CRASH_KILL")
	plan, err := faultinject.ParseKillSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan.KillExit = true
	runServiceFlow(t, crashConfig(t, dir, faultinject.New(plan)))
	t.Fatalf("kill point %s never fired", spec)
}

// TestServiceCrashRestart is the crash-tolerance acceptance test: it kills a
// real daemon subprocess with exit 137 at every structural point of the
// service loop — during ingest journaling, between adoption save and diff
// publish (for both the boot and the drift adoption), and after every
// durable solve-journal save — then restarts in-process and requires that
// (a) whatever incumbent was journaled is served immediately, without
// solving, and (b) the interrupted flow resumes to the exact allocation an
// uninterrupted run produces.
func TestServiceCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	// Uninterrupted baseline; the counting injector learns how many
	// solve-journal saves the flow performs, i.e. how many ckpt kill
	// indices exist.
	counter := faultinject.New(faultinject.Plan{})
	bootBase, finalBase := runServiceFlow(t, crashConfig(t, t.TempDir(), counter))
	saves := counter.Saves()
	if saves < 4 {
		t.Fatalf("baseline flow performed only %d solve-journal saves; the ckpt sweep needs the 2+2 decomposition's per-chunk records", saves)
	}
	if hits := counter.Hits(KillPointPublish); hits != 2 {
		t.Fatalf("baseline hit the publish kill point %d times, want 2 (boot + drift adoption)", hits)
	}
	if hits := counter.Hits(KillPointIngest); hits != 1 {
		t.Fatalf("baseline hit the ingest kill point %d times, want 1", hits)
	}

	specs := []string{"service.ingest:1", "service.publish:1", "service.publish:2"}
	for n := 1; n <= saves; n++ {
		specs = append(specs, fmt.Sprintf("ckpt:%d", n))
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "TestServiceCrashHelperProcess$")
			cmd.Env = append(os.Environ(),
				"SERVICE_CRASH_DIR="+dir,
				"SERVICE_CRASH_KILL="+spec,
			)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("helper exited cleanly; kill point never fired:\n%s", out)
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
			// Named kill points pin exactly which state must have survived.
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
