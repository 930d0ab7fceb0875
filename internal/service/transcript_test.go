package service

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/faultinject"
	"fragalloc/internal/mip"
	"fragalloc/internal/scenario"
	"fragalloc/internal/simplex"
)

// transcript folds a scripted daemon life into one FNV-64a sum: every
// state-journal generation file written, every migration diff, every status
// with its wall-clock fields masked, and the text of every refusal.
type transcript struct {
	t       *testing.T
	sum     uint64 // running digest, chained step by step
	lastGen int    // newest state-journal generation already folded in
}

func (tr *transcript) add(label string, data []byte) {
	tr.t.Helper()
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x %s\n", tr.sum, label)
	h.Write(data)
	tr.sum = h.Sum64()
	tr.t.Logf("%-46s %6d bytes -> %016x", label, len(data), tr.sum)
}

func (tr *transcript) addJSON(label string, v any) {
	tr.t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		tr.t.Fatal(err)
	}
	tr.add(label, data)
	tr.t.Logf("    %s", data)
}

// status folds in the daemon's self-description; AdoptedAt and TailAge are
// the only wall-clock readings in it.
func (tr *transcript) status(label string, s *Service) {
	tr.t.Helper()
	st := s.Status()
	st.AdoptedAt, st.TailAge = time.Time{}, 0
	tr.addJSON(label+" status", st)
}

// journal folds in every generation file the state journal gained since the
// last call. The store keeps the newest two, and no step of the script
// writes more than two, so a gap in the numbering means a frame went
// unrecorded and fails the test.
func (tr *transcript) journal(label, stateDir string) {
	tr.t.Helper()
	for _, name := range journalGens(tr.t, stateDir) {
		var gen int
		if _, err := fmt.Sscanf(name, "gen-%d.ckpt", &gen); err != nil {
			tr.t.Fatalf("journal file %q: %v", name, err)
		}
		if gen <= tr.lastGen {
			continue
		}
		if gen != tr.lastGen+1 {
			tr.t.Fatalf("%s: journal jumped from generation %d to %d; a frame was written and pruned unseen", label, tr.lastGen, gen)
		}
		data, err := os.ReadFile(filepath.Join(stateDir, name))
		if err != nil {
			tr.t.Fatal(err)
		}
		tr.add(label+" journal "+name, data)
		tr.lastGen = gen
	}
}

// awaitAdoption blocks until the attempt covering epoch has adopted and
// everything that follows an adoption has happened: the incumbent is in the
// journal and the diff is published.
func awaitAdoption(t *testing.T, ctx context.Context, s *Service, epoch uint64) {
	t.Helper()
	if ok, err := s.WaitEpoch(ctx, epoch); err != nil || !ok {
		t.Fatalf("WaitEpoch(%d) = (%v, %v), want adoption", epoch, ok, err)
	}
	waitCond(t, 60*time.Second, fmt.Sprintf("the adoption of epoch %d to be journaled and published", epoch), func() bool {
		payload, err := s.st.LoadRaw()
		if err != nil {
			t.Fatal(err)
		}
		var ps persistedState
		if err := json.Unmarshal(payload, &ps); err != nil {
			t.Fatal(err)
		}
		d := s.Diff()
		return ps.Incumbent != nil && ps.IncumbentEpoch == epoch && d != nil && d.ToEpoch == epoch
	})
}

// TestServiceTranscriptGolden pins everything one daemon does to its durable
// and served state over a scripted life, recorded at the parent of the
// state/shell split (PR 21) and required not to move across it: boot; a
// seeded drift stream, each update awaited through WaitEpoch; two refused
// updates; an attempt rejected because every LP factorization is made to
// fail; a restart on the same directory that resumes and adopts the pending
// epoch; and, alongside, a second replica that installs the journal's frames
// the way a follower tails them and at the end the way a promotion reloads one.
// Parallelism is 1 and every budget is a node count, so the digest is the
// same on every machine.
func TestServiceTranscriptGolden(t *testing.T) {
	fault := &switchFault{inner: faultinject.Always()}
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")
	cfg := crashConfig(t, dir, faultinject.New(faultinject.Plan{}))
	cfg.Scenarios = scenario.InSample(cfg.Workload, 6, 0.6, 3)
	cfg.ReduceTo = 3
	cfg.MIP = mip.Options{MaxNodes: 40, MaxStallNodes: 20, LP: simplex.Options{RefactorEvery: 1, Fault: fault}}
	// One failed attempt must park the loop for the rest of the daemon's
	// life, so the attempt counters the transcript records do not depend on
	// how many retries fit before the restart.
	cfg.BackoffBase, cfg.BackoffMax = time.Hour, 2*time.Hour

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	tr := &transcript{t: t}

	// The second replica has an empty directory of its own and tails the
	// daemon's journal after every step, the way a follower's poll tick does.
	cfg2 := cfg
	cfg2.StateDir = t.TempDir()
	replica, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	watcher := checkpoint.NewWatcher(stateDir)
	var tailed []byte
	tail := func(label string) {
		t.Helper()
		gen, payload, ok, err := watcher.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		if err := replica.adoptJournal(payload, gen); err != nil {
			t.Fatal(err)
		}
		tr.status(fmt.Sprintf("%s tailed gen %d", label, gen), replica)
		tailed = payload
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.status("new", s)
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	tr.journal("boot", stateDir)
	tail("boot")
	tr.status("boot", s)

	runCtx, stop := context.WithCancel(ctx)
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		s.Run(runCtx)
	}()

	updates := GenerateDrift(cfg.Workload, cfg.Scenarios, DriftConfig{Updates: 6, Seed: 5, ObserveProb: 0.4})
	var epoch uint64
	for i, u := range updates {
		step := fmt.Sprintf("drift %d", i+1)
		if epoch, err = s.Apply(u); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		awaitAdoption(t, ctx, s, epoch)
		tr.journal(step, stateDir)
		tail(step)
		tr.addJSON(step+" diff", s.Diff())
		tr.status(step, s)
	}
	if st := s.Status(); st.Reclusterings == 0 {
		t.Fatalf("the drift stream never tripped a re-clustering: %+v", st)
	}

	// Refusals change nothing and write nothing.
	for _, u := range []Update{
		{SetK: 5},
		{FreqDeltas: []FreqDelta{{Scenario: 99, Query: 0, Delta: 1}}},
	} {
		_, err := s.Apply(u)
		if err == nil {
			t.Fatalf("Apply(%+v) was accepted", u)
		}
		tr.add("refused", []byte(err.Error()))
	}
	tr.journal("refused", stateDir)
	tail("refused")
	tr.status("refused", s)

	// One rejected attempt: every refactorization fails, all three
	// subproblems degrade, and a degraded solve never displaces an incumbent.
	fault.on.Store(true)
	if epoch, err = s.Apply(driftUpdate()); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.WaitEpoch(ctx, epoch); err != nil || ok {
		t.Fatalf("WaitEpoch(%d) = (%v, %v) with every LP failing, want a rejected attempt", epoch, ok, err)
	}
	tr.journal("rejected", stateDir)
	tail("rejected")
	tr.addJSON("rejected diff", s.Diff())
	tr.status("rejected", s)
	stop()
	<-loopDone
	fault.on.Store(false)

	// Restart on the same directory: the journaled incumbent serves before
	// any solve, then the loop resumes the rejected epoch's solve journal.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.status("restart", s2)
	if err := s2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	go s2.Run(ctx)
	awaitAdoption(t, ctx, s2, epoch)
	tr.journal("recovered", stateDir)
	tail("recovered")
	tr.addJSON("recovered diff", s2.Diff())
	tr.status("recovered", s2)

	// Promotion: the replica reloads the newest frame from its own journal.
	if err := replica.st.SaveRaw(tailed); err != nil {
		t.Fatal(err)
	}
	if err := replica.reloadState(); err != nil {
		t.Fatal(err)
	}
	tr.status("promoted", replica)
	inc, _ := replica.Incumbent()
	tr.addJSON("promoted incumbent", inc.Allocation)

	const want = uint64(0x192599134a2953e1)
	if tr.sum != want {
		t.Errorf("transcript digest %#016x, want %#016x (the steps are logged above)", tr.sum, want)
	}
}
