package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/faultinject"
)

// haTestTTL is the lease TTL the failover suite runs at. The acceptance
// budget — a standby serving within 2×TTL of the leader's death — is
// asserted against this value, so it is long enough that renewal ticks
// survive -race scheduling jitter and short enough that the sweep stays fast.
const haTestTTL = 1500 * time.Millisecond

// haConfig is crashConfig plus one replica's HA membership: all replicas of
// a test group share dir and differ only in node identity.
func haConfig(t testing.TB, dir, node string, fault *faultinject.Injector) Config {
	t.Helper()
	cfg := crashConfig(t, dir, fault)
	cfg.HA = &HAConfig{
		NodeID:   node,
		Addr:     "http://" + node + ".test",
		LeaseTTL: haTestTTL,
	}
	return cfg
}

// waitCond polls cond every 10ms until it holds or the budget lapses.
func waitCond(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// journalGens lists the state-journal generation files, sorted, so tests can
// assert that a fenced replica changed nothing on disk.
func journalGens(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// TestServiceHAHelperProcess is the subprocess body the failover suite kills:
// one HA replica with a faultinject.ParseKillSpec kill plan from the
// environment. Without SERVICE_HA_FOLLOW it runs for the lease and drives the
// canonical boot+drift flow as leader; with it, it is a pure standby tailing
// the journal. Every kill is os.Exit(137), SIGKILL-style.
func TestServiceHAHelperProcess(t *testing.T) {
	dir := os.Getenv("SERVICE_HA_DIR")
	if dir == "" {
		t.Skip("subprocess helper; driven by the HA failover tests")
	}
	spec := os.Getenv("SERVICE_HA_KILL")
	plan, err := faultinject.ParseKillSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan.KillExit = true
	cfg := haConfig(t, dir, "victim", faultinject.New(plan))
	if os.Getenv("SERVICE_HA_FOLLOW") != "" {
		cfg.HA.NoPromote = true
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.RunHA(ctx) }()

	if cfg.HA.NoPromote {
		// Pure standby: tail until the replica.tail kill fires.
		select {
		case err := <-done:
			t.Fatalf("standby RunHA returned before the kill: %v", err)
		case <-time.After(90 * time.Second):
			t.Fatalf("kill point %s never fired", spec)
		}
	}

	// Leader victim: lead, drive the canonical flow, then linger so renewal
	// kill points fire. Reaching the end alive means the kill point never
	// fired (lease.handover fires inside the graceful cancel below).
	deadline := time.Now().Add(110 * time.Second)
	for {
		select {
		case err := <-done:
			t.Fatalf("RunHA returned before leading: %v", err)
		default:
		}
		if inc, _ := s.Incumbent(); s.Role() == RoleLeader && inc != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never led")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.Epoch() < 1 {
		if _, err := s.Apply(driftUpdate()); err != nil {
			t.Fatal(err)
		}
	}
	if adopted, err := s.WaitEpoch(ctx, 1); err != nil || !adopted {
		t.Fatalf("WaitEpoch(1) = (%v, %v), want adoption", adopted, err)
	}
	time.Sleep(5 * cfg.HA.renewEvery())
	cancel()
	<-done
	t.Fatalf("kill point %s never fired", spec)
}

// TestServiceHAFailover is the failover acceptance test: a real leader
// subprocess is killed with exit 137 at every named point of the HA machinery
// — right after acquiring the lease, after each renewal, mid-ingest,
// mid-publish, and during the graceful handover — while an in-process standby
// follows the same state directory. The standby must take over within 2× the
// lease TTL of the observed death, at a higher fencing epoch, and complete
// the interrupted flow to the exact allocation an uninterrupted single-node
// run produces.
func TestServiceHAFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	_, finalBase := runServiceFlow(t, crashConfig(t, t.TempDir(), nil))

	specs := []string{
		"lease.acquire:1",
		"lease.renew:1",
		"lease.renew:2",
		"service.ingest:1",
		"service.publish:1",
		"lease.handover:1",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
			defer cancel()

			// Pre-seed the shared journal with the boot adoption so even the
			// earliest kill (lease.acquire:1, before the victim solves
			// anything) leaves the standby a warm incumbent to serve.
			preseed, err := New(crashConfig(t, dir, nil))
			if err != nil {
				t.Fatal(err)
			}
			if err := preseed.Bootstrap(ctx); err != nil {
				t.Fatal(err)
			}

			cmd := exec.Command(os.Args[0], "-test.run", "TestServiceHAHelperProcess$")
			cmd.Env = append(os.Environ(),
				"SERVICE_HA_DIR="+dir,
				"SERVICE_HA_KILL="+spec,
			)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &out
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			leasePath := filepath.Join(dir, "leader.lease")
			waitCond(t, 120*time.Second, "the victim to take the lease", func() bool {
				li, lerr := checkpoint.ReadLease(leasePath)
				return lerr == nil && li != nil && li.Holder == "victim"
			})

			// The standby starts while the victim still leads: it must follow
			// first and may only promote once the victim's lease lapses.
			standby, err := New(haConfig(t, dir, "standby", nil))
			if err != nil {
				t.Fatal(err)
			}
			sctx, scancel := context.WithCancel(ctx)
			haDone := make(chan error, 1)
			go func() { haDone <- standby.RunHA(sctx) }()
			defer func() {
				scancel()
				if err := <-haDone; err != nil {
					t.Errorf("standby RunHA: %v", err)
				}
			}()

			werr := cmd.Wait()
			if werr == nil {
				t.Fatalf("victim exited cleanly; kill point never fired:\n%s", out.String())
			}
			ee, ok := werr.(*exec.ExitError)
			if !ok {
				t.Fatalf("running victim: %v\n%s", werr, out.String())
			}
			if code := ee.ExitCode(); code != 137 {
				t.Fatalf("victim exit code %d, want 137:\n%s", code, out.String())
			}

			// The acceptance budget: a standby serving as leader within 2×TTL
			// of the observed death.
			died := time.Now()
			waitCond(t, 2*haTestTTL, "the standby to take over", func() bool {
				inc, _ := standby.Incumbent()
				return standby.Role() == RoleLeader && inc != nil
			})
			t.Logf("takeover %v after the kill (budget %v)", time.Since(died).Round(time.Millisecond), 2*haTestTTL)
			if st := standby.Status(); st.LeaseEpoch != 2 {
				t.Errorf("standby leads at fencing epoch %d, want 2 (takeover over the victim's epoch-1 lease)", st.LeaseEpoch)
			}

			// Complete the interrupted flow on the successor: it must
			// converge bit-for-bit with the uninterrupted baseline.
			if standby.Epoch() < 1 {
				if _, err := standby.Apply(driftUpdate()); err != nil {
					t.Fatal(err)
				}
			}
			adopted, err := standby.WaitEpoch(ctx, 1)
			if err != nil || !adopted {
				t.Fatalf("standby WaitEpoch(1) = (%v, %v), want adoption", adopted, err)
			}
			final, _ := standby.Incumbent()
			if final.Epoch != 1 {
				t.Fatalf("standby serves epoch %d, want 1", final.Epoch)
			}
			if !reflect.DeepEqual(final.Allocation.Fragments, finalBase.Allocation.Fragments) {
				t.Fatalf("after %s, the successor's allocation differs from the uninterrupted baseline:\n got %v\nwant %v",
					spec, final.Allocation.Fragments, finalBase.Allocation.Fragments)
			}
			if !reflect.DeepEqual(final.Allocation.Shares, finalBase.Allocation.Shares) {
				t.Fatalf("after %s, the successor's routing shares differ from the uninterrupted baseline", spec)
			}
		})
	}
}

// TestServiceHAFollowerCrashAndPromotion covers the replication side of
// failover: a standby subprocess is killed right after its first tail
// adoption (replica.tail:1), the leader moves on to the drift epoch while no
// follower watches, and a restarted follower must catch up purely from the
// journal — then, after the leader's graceful handover, promote and serve the
// identical allocation without re-solving.
func TestServiceHAFollowerCrashAndPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	leader, err := New(haConfig(t, dir, "leader", nil))
	if err != nil {
		t.Fatal(err)
	}
	lctx, lcancel := context.WithCancel(ctx)
	ldone := make(chan error, 1)
	go func() { ldone <- leader.RunHA(lctx) }()
	waitCond(t, 120*time.Second, "the leader to bootstrap", func() bool {
		inc, _ := leader.Incumbent()
		return leader.Role() == RoleLeader && inc != nil
	})

	// A standby that dies the moment it first adopts a tailed generation.
	cmd := exec.Command(os.Args[0], "-test.run", "TestServiceHAHelperProcess$")
	cmd.Env = append(os.Environ(),
		"SERVICE_HA_DIR="+dir,
		"SERVICE_HA_KILL="+KillPointReplicaTail+":1",
		"SERVICE_HA_FOLLOW=1",
	)
	out, werr := cmd.CombinedOutput()
	if werr == nil {
		t.Fatalf("follower exited cleanly; kill point never fired:\n%s", out)
	}
	ee, ok := werr.(*exec.ExitError)
	if !ok {
		t.Fatalf("running follower: %v\n%s", werr, out)
	}
	if code := ee.ExitCode(); code != 137 {
		t.Fatalf("follower exit code %d, want 137:\n%s", code, out)
	}

	// The leader advances while no follower is watching.
	if _, err := leader.Apply(driftUpdate()); err != nil {
		t.Fatal(err)
	}
	if adopted, err := leader.WaitEpoch(ctx, 1); err != nil || !adopted {
		t.Fatalf("leader WaitEpoch(1) = (%v, %v), want adoption", adopted, err)
	}
	final, _ := leader.Incumbent()

	// A restarted follower catches up from the journal alone: warm at the
	// drift adoption, tagged with its role and staleness, redirecting writes.
	follower, err := New(haConfig(t, dir, "shadow", nil))
	if err != nil {
		t.Fatal(err)
	}
	fctx, fcancel := context.WithCancel(ctx)
	fdone := make(chan error, 1)
	go func() { fdone <- follower.RunHA(fctx) }()
	defer func() {
		fcancel()
		if err := <-fdone; err != nil {
			t.Errorf("follower RunHA: %v", err)
		}
	}()
	waitCond(t, 120*time.Second, "the follower to tail the drift adoption", func() bool {
		st := follower.Status()
		return st.Role == RoleFollower && st.TailGeneration > 0 && st.IncumbentEpoch == 1
	})
	warm, _ := follower.Incumbent()
	if !reflect.DeepEqual(warm.Allocation.Fragments, final.Allocation.Fragments) {
		t.Fatal("follower's tailed incumbent differs from the leader's adoption")
	}

	// Over HTTP the follower serves reads tagged with its role, reports
	// ready, and redirects writes to the leader with method and body intact.
	srv := httptest.NewServer(follower.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/allocation")
	if err != nil {
		t.Fatal(err)
	}
	var ar allocationResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if ar.Role != RoleFollower || ar.LeaderAddr != "http://leader.test" {
		t.Fatalf("follower allocation tagged (%q leader %q), want follower redirecting to http://leader.test", ar.Role, ar.LeaderAddr)
	}
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rr readyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rr.Ready || rr.TailGeneration == 0 {
		t.Fatalf("follower /readyz = %d %+v, want ready with tail metadata", resp.StatusCode, rr)
	}
	body, err := json.Marshal(driftUpdate())
	if err != nil {
		t.Fatal(err)
	}
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err = noFollow.Post(srv.URL+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower POST /v1/update = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://leader.test/v1/update" {
		t.Fatalf("redirect Location = %q, want the leader's update endpoint", loc)
	}

	// Graceful handover: the leader releases its lease and the follower
	// promotes — serving the same allocation without a single solve of its
	// own (the journal is the replication channel).
	lcancel()
	if err := <-ldone; err != nil {
		t.Fatalf("leader RunHA: %v", err)
	}
	waitCond(t, 120*time.Second, "the follower to promote", func() bool {
		inc, _ := follower.Incumbent()
		return follower.Role() == RoleLeader && inc != nil
	})
	promoted, _ := follower.Incumbent()
	if !reflect.DeepEqual(promoted.Allocation.Fragments, final.Allocation.Fragments) {
		t.Fatal("promoted follower serves a different allocation than the deposed leader")
	}
	if st := follower.Status(); st.Attempts != 0 {
		t.Fatalf("promotion cost %d solves, want 0 (the incumbent comes from the journal)", st.Attempts)
	}
}

// forgeLeaseExpired rewrites the lease file's renewal timestamp an hour into
// the past, simulating a leader paused past its TTL, without touching holder
// or fencing epoch.
func forgeLeaseExpired(t testing.TB, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var li checkpoint.LeaseInfo
	if err := json.Unmarshal(data, &li); err != nil {
		t.Fatal(err)
	}
	li.RenewedAt = time.Now().Add(-time.Hour)
	forged, err := json.Marshal(li)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServiceHAFencing proves the split-brain defense end to end: when a
// usurper takes the lease at a higher fencing epoch (here by forging the old
// leader's renewal into expiry, as a long GC pause or partition would), the
// deposed leader demotes instead of publishing, and every write path — update
// admission, the adoption gate, the journal itself — refuses. The state
// journal on disk must be byte-for-byte untouched by the deposed replica.
func TestServiceHAFencing(t *testing.T) {
	if testing.Short() {
		t.Skip("solver lifecycle test")
	}
	dir := t.TempDir()
	cfg := haConfig(t, dir, "a", nil)
	cfg.HA.LeaseTTL = time.Second
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.RunHA(ctx) }()
	// Adoption installs the incumbent before it journals it, so wait for the
	// journal frame too: sampled in between, gensBefore would miss it.
	stateDir := filepath.Join(dir, "state")
	waitCond(t, 120*time.Second, "a to lead and journal its adoption", func() bool {
		inc, _ := s.Incumbent()
		return s.Role() == RoleLeader && inc != nil && len(journalGens(t, stateDir)) > 0
	})
	gensBefore := journalGens(t, stateDir)

	// Usurp: forge the lease into expiry and take it over as "b". The old
	// leader's renew loop may interleave fresh renewals; retry until the
	// takeover lands between two of them.
	leasePath := filepath.Join(dir, "leader.lease")
	var usurper *checkpoint.Lease
	for i := 0; usurper == nil; i++ {
		if i > 1000 {
			t.Fatal("could not usurp the lease")
		}
		forgeLeaseExpired(t, leasePath)
		l, _, aerr := checkpoint.AcquireLease(leasePath, "b", "http://b.test", time.Hour)
		switch {
		case aerr == nil:
			usurper = l
		case errors.Is(aerr, checkpoint.ErrLeaseHeld):
			time.Sleep(5 * time.Millisecond)
		default:
			t.Fatal(aerr)
		}
	}
	if usurper.Epoch() != 2 {
		t.Fatalf("usurper fencing epoch %d, want 2", usurper.Epoch())
	}

	// The deposed leader must notice within a renewal period and demote.
	select {
	case err := <-done:
		if !errors.Is(err, ErrDemoted) {
			t.Fatalf("deposed leader's RunHA = %v, want ErrDemoted", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("deposed leader never demoted")
	}
	if role := s.Role(); role != RoleCandidate {
		t.Fatalf("deposed leader's role = %q, want candidate", role)
	}

	// Every write path refuses on the deposed replica.
	var notLeader *NotLeaderError
	if _, err := s.Apply(driftUpdate()); !errors.As(err, &notLeader) {
		t.Fatalf("deposed Apply = %v, want NotLeaderError", err)
	}
	if err := s.publishGate(); !errors.As(err, &notLeader) {
		t.Fatalf("deposed publishGate = %v, want NotLeaderError", err)
	}
	if err := s.persist(); !errors.Is(err, checkpoint.ErrLeaseLost) {
		t.Fatalf("deposed persist = %v, want the sticky lease fence", err)
	}
	if got := journalGens(t, stateDir); !reflect.DeepEqual(got, gensBefore) {
		t.Fatalf("deposed leader changed the journal: %v -> %v", gensBefore, got)
	}

	// The usurper's reign is undisturbed: its lease still verifies.
	if err := usurper.Check(); err != nil {
		t.Fatalf("usurper's lease check: %v", err)
	}
	if err := usurper.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceFencedApplyIsRefused covers the window between a takeover and
// the deposed leader's next renewal: the role still admits the update, but
// the journal fence finds the lease lost. The update is then in no journal,
// so Apply must refuse it as a non-leader instead of acknowledging it, and
// the journal must be untouched.
func TestServiceFencedApplyIsRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := New(crashConfig(t, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.persist(); err != nil {
		t.Fatal(err)
	}
	stateDir := filepath.Join(dir, "state")
	gensBefore := journalGens(t, stateDir)
	s.st.SetFence(func() error { return checkpoint.ErrLeaseLost })

	var notLeader *NotLeaderError
	if epoch, err := s.Apply(driftUpdate()); !errors.As(err, &notLeader) {
		t.Fatalf("fenced Apply = (%d, %v), want NotLeaderError", epoch, err)
	}
	select {
	case <-s.wake:
		t.Fatal("a refused update woke the re-optimization loop")
	default:
	}
	if got := journalGens(t, stateDir); !reflect.DeepEqual(got, gensBefore) || len(got) != 1 {
		t.Fatalf("fenced Apply changed the journal: %v -> %v", gensBefore, got)
	}

	// Any other journal failure keeps the warn-and-acknowledge policy.
	s.st.SetFence(func() error { return errors.New("disk unhappy") })
	if _, err := s.Apply(driftUpdate()); err != nil {
		t.Fatalf("Apply through a failing (not fenced) journal = %v, want acknowledged", err)
	}
}
