package service

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/core"
	"fragalloc/internal/faultinject"
	"fragalloc/internal/greedy"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
	"fragalloc/internal/simplex"
)

// serviceWorkload builds the deterministic workload most service tests
// solve. The shape (12 fragments, 8 queries, seed 18) is calibrated: exact
// flat solves finish in well under a second, so lifecycle tests stay fast
// even under -race.
func serviceWorkload(t testing.TB) *model.Workload {
	t.Helper()
	return calibratedWorkload(18, 12, 8)
}

// calibratedWorkload mirrors core's randomWorkload generator; the service
// tests pin (seed, n, q) triples whose solve behavior was measured.
func calibratedWorkload(seed int64, n, q int) *model.Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &model.Workload{Name: "svc"}
	for i := 0; i < n; i++ {
		w.Fragments = append(w.Fragments, model.Fragment{ID: i, Size: 1 + rng.Float64()*99})
	}
	for j := 0; j < q; j++ {
		nf := 1 + rng.Intn(3)
		seen := map[int]bool{}
		var fr []int
		for len(fr) < nf {
			i := rng.Intn(n)
			if !seen[i] {
				seen[i] = true
				fr = append(fr, i)
			}
		}
		w.Queries = append(w.Queries, model.Query{ID: j, Fragments: fr, Cost: 0.1 + rng.Float64()*10, Frequency: 1})
	}
	w.NormalizeQueryFragments()
	return w
}

// serviceConfig is the shared deterministic config; tests override fields.
func serviceConfig(t testing.TB) Config {
	return Config{
		Workload:    serviceWorkload(t),
		K:           3,
		Parallelism: 1,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
}

// driftUpdate is the fixed drift the lifecycle tests apply.
func driftUpdate() Update {
	return Update{FreqDeltas: []FreqDelta{
		{Scenario: 0, Query: 2, Delta: 0.8},
		{Scenario: 0, Query: 5, Delta: -0.4},
	}}
}

// TestServiceLifecycle walks the happy path: bootstrap, one drift update,
// adoption with a diff whose application reproduces the new incumbent.
func TestServiceLifecycle(t *testing.T) {
	s, err := New(serviceConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	boot, _ := s.Incumbent()
	if boot == nil || boot.Epoch != 0 {
		t.Fatalf("bootstrap incumbent = %+v, want epoch 0", boot)
	}
	if err := boot.Allocation.Validate(s.cfg.Workload); err != nil {
		t.Fatalf("bootstrap allocation invalid: %v", err)
	}
	go s.Run(ctx)

	epoch, err := s.Apply(driftUpdate())
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("Apply returned epoch %d, want 1", epoch)
	}
	adopted, err := s.WaitEpoch(ctx, epoch)
	if err != nil || !adopted {
		t.Fatalf("WaitEpoch = (%v, %v), want adoption", adopted, err)
	}
	inc, cur := s.Incumbent()
	if inc.Epoch != 1 || cur != 1 {
		t.Fatalf("incumbent epoch %d at desired epoch %d, want 1/1", inc.Epoch, cur)
	}
	d := s.Diff()
	if d == nil || d.FromEpoch != 0 || d.ToEpoch != 1 {
		t.Fatalf("diff = %+v, want a 0→1 plan", d)
	}
	if got := ApplyDiff(boot.Allocation, d); !reflect.DeepEqual(got.Fragments, inc.Allocation.Fragments) {
		t.Fatal("applying the published diff to the old incumbent does not reproduce the new placement")
	}
	st := s.Status()
	if st.StaleUpdates != 0 || st.Adoptions != 2 || st.LastError != "" {
		t.Errorf("status = %+v, want fresh incumbent after 2 adoptions", st)
	}
}

// TestServiceCoalescing pins single-flight update coalescing: a burst of
// updates applied before the loop starts is absorbed by ONE re-optimization
// targeting the latest epoch.
func TestServiceCoalescing(t *testing.T) {
	s, err := New(serviceConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	const burst = 10
	for i := 0; i < burst; i++ {
		if _, err := s.Apply(driftUpdate()); err != nil {
			t.Fatal(err)
		}
	}
	go s.Run(ctx)
	adopted, err := s.WaitEpoch(ctx, burst)
	if err != nil || !adopted {
		t.Fatalf("WaitEpoch = (%v, %v), want adoption of epoch %d", adopted, err, burst)
	}
	st := s.Status()
	if st.Attempts != 2 || st.Adoptions != 2 {
		t.Errorf("attempts=%d adoptions=%d after bootstrap + %d-update burst, want 2/2 (coalesced)",
			st.Attempts, st.Adoptions, burst)
	}
}

// switchFault delegates to an always-failing injector only while enabled —
// the lever the degradation test flips to break and then heal the solver.
type switchFault struct {
	on    atomic.Bool
	inner simplex.FaultInjector
}

func (f *switchFault) FailRefactor() bool { return f.on.Load() && f.inner.FailRefactor() }
func (f *switchFault) ForceStall() bool   { return f.on.Load() && f.inner.ForceStall() }

// TestServiceDegradedServesIncumbent is the graceful-degradation contract:
// while every solve fails, the service keeps serving the last good incumbent
// tagged with its staleness, and recovers on its own once solves heal.
func TestServiceDegradedServesIncumbent(t *testing.T) {
	fault := &switchFault{inner: faultinject.Always()}
	cfg := serviceConfig(t)
	cfg.MIP = mip.Options{LP: simplex.Options{RefactorEvery: 1, Fault: fault}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	boot, _ := s.Incumbent()
	go s.Run(ctx)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	fault.on.Store(true)
	epoch, err := s.Apply(driftUpdate())
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := s.WaitEpoch(ctx, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if adopted {
		t.Fatal("a fully faulted solve was adopted")
	}

	// The serve endpoint never errors: it returns the stale incumbent,
	// tagged, for as long as re-optimization keeps failing.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/v1/allocation")
		if err != nil {
			t.Fatal(err)
		}
		var body allocationResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/allocation = %d while degraded, want 200", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if body.StaleUpdates < 1 || body.IncumbentEpoch != boot.Epoch {
			t.Fatalf("degraded response = %+v, want the epoch-%d incumbent tagged stale", body, boot.Epoch)
		}
		if body.LastError == "" {
			t.Error("degraded response carries no last_error")
		}
		if !reflect.DeepEqual(body.Allocation.Fragments, boot.Allocation.Fragments) {
			t.Fatal("degraded response serves something other than the incumbent")
		}
	}
	if st := s.Status(); st.ConsecutiveFailures < 1 {
		t.Errorf("status = %+v, want failures recorded", st)
	}

	// Heal the solver; the backoff loop must adopt without outside help.
	fault.on.Store(false)
	deadline := time.Now().Add(300 * time.Second)
	for {
		if st := s.Status(); st.IncumbentEpoch >= epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service did not recover after faults cleared: %+v", s.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := s.Status(); st.LastError != "" || st.StaleUpdates != 0 {
		t.Errorf("post-recovery status = %+v, want clean", st)
	}
}

// TestServiceWarmStartFewerLPIters pins the point of warm-starting: over a
// run of drifted instances, re-optimizing from the incumbent does less
// simplex work than solving cold, and never ends on a worse allocation.
//
// It is a sum because branch and bound is chaotic in its pivots: on a single
// instance the ratio of warm to cold LP iterations moves with every change to
// the pivot trajectory (over these seeds from 0.20 to 1.48; the one instance
// this test once rested on went from 0.86 to 1.11 in PR 18). It is at K = 2
// because that is where the head start is systematic: a flat root with three
// or more subnodes runs the hierarchical pre-solve, so its cold search starts
// from an incumbent as good as the warm one and the sums come out level,
// while at K = 2 the cold search has the greedy placement alone. Over these
// twelve consecutive seeds Σ warm / Σ cold is 0.59, and was 0.75 on the pivot
// trajectory before PR 18. The solver is deterministic at Parallelism 1, so
// the counts reproduce exactly; the test asserts only the sign of the sum.
func TestServiceWarmStartFewerLPIters(t *testing.T) {
	var sumCold, sumWarm int
	for seed := int64(1); seed <= 12; seed++ {
		w := calibratedWorkload(seed, 20, 16)
		ss := scenario.InSample(w, 1, 0.75, seed)
		base, err := core.Allocate(w, ss, 2, core.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		drifted, _, err := applyUpdate(w, ss, 2, Update{FreqDeltas: []FreqDelta{{Scenario: 0, Query: 2, Delta: 0.3}}})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.Allocate(w, drifted, 2, core.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := core.Allocate(w, drifted, 2, core.Options{Parallelism: 1, Warm: base.Allocation})
		if err != nil {
			t.Fatal(err)
		}
		if warm.ReplicationFactor > cold.ReplicationFactor+1e-9 {
			t.Errorf("seed %d: warm W/V %.6f worse than cold %.6f", seed, warm.ReplicationFactor, cold.ReplicationFactor)
		}
		sumCold += cold.LPIters
		sumWarm += warm.LPIters
		t.Logf("seed %d: cold LPIters=%d, warm LPIters=%d (%.1f%%)", seed, cold.LPIters, warm.LPIters,
			100*float64(warm.LPIters)/float64(cold.LPIters))
	}
	if sumWarm >= sumCold {
		t.Errorf("warm starts did not reduce simplex work: Σ warm LPIters=%d, Σ cold=%d", sumWarm, sumCold)
	}
	t.Logf("Σ cold LPIters=%d, Σ warm LPIters=%d (%.1f%%)", sumCold, sumWarm, 100*float64(sumWarm)/float64(sumCold))
}

// TestServiceHTTPEndpoints exercises the full endpoint table over a live
// httptest server.
func TestServiceHTTPEndpoints(t *testing.T) {
	s, err := New(serviceConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Before bootstrap: allocation and readiness are 503, but liveness is
	// already 200 — the process is up, just not serving yet.
	for _, path := range []string{"/v1/allocation", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s pre-bootstrap = %d, want 503", path, resp.StatusCode)
		}
	}
	resp0, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp0.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp0.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz pre-bootstrap = %d, want 200 (liveness, not readiness)", resp0.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	go s.Run(ctx)

	get := func(path string, want int, into any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var ar allocationResponse
	get("/v1/allocation", http.StatusOK, &ar)
	if ar.Allocation == nil || ar.Outcome == "" {
		t.Fatalf("allocation response = %+v, want an allocation with outcome", ar)
	}
	if ar.Role != RoleSingle {
		t.Errorf("allocation response role = %q, want %q", ar.Role, RoleSingle)
	}
	get("/healthz", http.StatusOK, nil)
	var rr readyResponse
	get("/readyz", http.StatusOK, &rr)
	if !rr.Ready || rr.Role != RoleSingle {
		t.Errorf("readyz post-bootstrap = %+v, want ready in role single", rr)
	}
	get("/v1/diff", http.StatusNotFound, nil) // no re-optimization yet

	// Malformed and invalid updates are 400.
	for _, body := range []string{"{not json", `{"freq_deltas":[{"scenario":99,"query":0,"delta":1}]}`} {
		resp, err := http.Post(srv.URL+"/v1/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST bad update %q = %d, want 400", body, resp.StatusCode)
		}
	}

	// Async ingest: 202 with the new epoch.
	resp, err := http.Post(srv.URL+"/v1/update", "application/json",
		strings.NewReader(`{"freq_deltas":[{"scenario":0,"query":2,"delta":0.8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ur updateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || ur.Epoch != 1 {
		t.Fatalf("POST /v1/update = %d %+v, want 202 epoch 1", resp.StatusCode, ur)
	}

	// Blocking ingest: 200 with adoption flag and migration diff.
	resp, err = http.Post(srv.URL+"/v1/update?wait=1", "application/json",
		strings.NewReader(`{"set_k":4}`))
	if err != nil {
		t.Fatal(err)
	}
	ur = updateResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !ur.Adopted || ur.Epoch != 2 {
		t.Fatalf("POST /v1/update?wait=1 = %d %+v, want 200 adopted epoch 2", resp.StatusCode, ur)
	}
	if ur.Diff == nil || ur.Diff.ToEpoch != 2 || len(ur.Diff.Nodes) != 4 {
		t.Fatalf("wait response diff = %+v, want a 4-node plan for epoch 2", ur.Diff)
	}

	var st Status
	get("/v1/status", http.StatusOK, &st)
	if st.Epoch != 2 || st.IncumbentEpoch != 2 || st.K != 4 {
		t.Errorf("status = %+v, want epoch 2 at K=4", st)
	}
	var d Diff
	get("/v1/diff", http.StatusOK, &d)
	if d.ToEpoch != 2 {
		t.Errorf("GET /v1/diff ToEpoch = %d, want 2", d.ToEpoch)
	}
}

// TestServiceJournalRestore pins clean-restart durability: a fresh Service
// on the same state directory boots into the last served incumbent without
// solving, and rejects a journal written for a different workload.
func TestServiceJournalRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := serviceConfig(t)
	cfg.StateDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	go s.Run(ctx)
	epoch, err := s.Apply(driftUpdate())
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s.WaitEpoch(ctx, epoch); !ok || err != nil {
		t.Fatalf("WaitEpoch = (%v, %v)", ok, err)
	}
	want, _ := s.Incumbent()
	cancel()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, cur := s2.Incumbent()
	if got == nil || cur != epoch || got.Epoch != epoch {
		t.Fatalf("restored incumbent epoch = %+v at desired %d, want %d", got, cur, epoch)
	}
	if !reflect.DeepEqual(got.Allocation.Fragments, want.Allocation.Fragments) ||
		!reflect.DeepEqual(got.Allocation.Shares, want.Allocation.Shares) {
		t.Fatal("restored incumbent differs from the served one")
	}
	if err := s2.Bootstrap(context.Background()); err != nil {
		t.Fatalf("Bootstrap on a restored service must be a no-op, got %v", err)
	}
	if st := s2.Status(); st.Attempts != 0 {
		t.Errorf("restored service solved %d times before any update", st.Attempts)
	}

	// A different workload must refuse the journal outright.
	other := serviceConfig(t)
	other.StateDir = dir
	other.Workload.Fragments[0].Size += 1
	if _, err := New(other); err == nil {
		t.Fatal("New accepted a state journal written for a different workload")
	}
}

// TestServiceJournalInstallPaths pins that a state-journal payload lands the
// same way however it arrives: read at boot, tailed by a follower, or
// reloaded by a replica on promotion. The payload is hand-built (a greedy
// allocation over a scenario set no replica was configured with), so every
// path has to take its desired state, incumbent and clustering from the
// journal and from nowhere else.
func TestServiceJournalInstallPaths(t *testing.T) {
	cfg := reducedConfig(t)
	journaled := scenario.InSample(cfg.Workload, 9, 0.6, 11)
	alloc, err := greedy.AllocateScenarios(cfg.Workload, journaled, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(&persistedState{
		WorkloadDigest: cfg.Workload.Digest(),
		Epoch:          5, K: cfg.K, Scenarios: journaled,
		Incumbent: alloc, IncumbentEpoch: 4, Outcome: "feasible", W: 7, V: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	journal := func(dir string) {
		t.Helper()
		st, err := checkpoint.Open(filepath.Join(dir, "state"))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveRaw(payload); err != nil {
			t.Fatal(err)
		}
	}

	bootCfg := cfg
	bootCfg.StateDir = t.TempDir()
	journal(bootCfg.StateDir)
	boot, err := New(bootCfg)
	if err != nil {
		t.Fatal(err)
	}

	tail, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tail.adoptJournal(payload, 3); err != nil {
		t.Fatal(err)
	}

	promoCfg := cfg
	promoCfg.StateDir = t.TempDir()
	promo, err := New(promoCfg)
	if err != nil {
		t.Fatal(err)
	}
	journal(promoCfg.StateDir)
	if err := promo.reloadState(); err != nil {
		t.Fatal(err)
	}

	// Everything the state can be asked: its view, the frame it would
	// journal, and what its next attempt would solve (the reduced set).
	installed := func(s *Service) (view, persistedState, attemptPlan) {
		var (
			v  view
			ps persistedState
			p  attemptPlan
		)
		s.locked(func(st *state) { v, ps, p = st.view(time.Time{}), st.persisted(), st.beginAttempt() })
		v.TailGeneration, v.TailAge = 0, 0
		return v, ps, p
	}
	wantView, wantFrame, wantPlan := installed(boot)
	if wantView.Epoch != 5 || wantView.IncumbentEpoch != 4 || wantView.Scenarios != 9 || wantView.ReducedScenarios != 4 {
		t.Fatalf("boot did not install the journal: %+v", wantView.Status)
	}
	for name, s := range map[string]*Service{"follower tail": tail, "promotion": promo} {
		v, frame, plan := installed(s)
		if !reflect.DeepEqual(v, wantView) {
			t.Errorf("%s: view %+v, boot has %+v", name, v, wantView)
		}
		if !reflect.DeepEqual(frame, wantFrame) {
			t.Errorf("%s: would journal a different frame than boot", name)
		}
		if !reflect.DeepEqual(plan, wantPlan) {
			t.Errorf("%s: next attempt differs from the one boot would run", name)
		}
	}
	if st := tail.Status(); st.TailGeneration != 3 {
		t.Errorf("follower tail recorded generation %d, want 3", st.TailGeneration)
	}
}

// TestServiceSetKChunkConflict pins the ingest-time guard: with a fixed
// decomposition spec, a set_k away from the spec's node count could never
// solve, so the update must be rejected whole — not accepted into an epoch
// the loop would retry forever.
func TestServiceSetKChunkConflict(t *testing.T) {
	cfg := serviceConfig(t)
	spec, err := core.ParseChunks("2+1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chunks = spec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if err := s.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(Update{SetK: 5}); err == nil {
		t.Fatal("Apply accepted set_k 5 against a fixed 3-node chunk spec")
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("rejected update bumped the epoch to %d", got)
	}
	// A resize matching the spec's coverage is a no-op resize and stays fine.
	if _, err := s.Apply(Update{SetK: 3, FreqDeltas: []FreqDelta{{Scenario: 0, Query: 1, Delta: 0.2}}}); err != nil {
		t.Fatalf("Apply rejected a spec-compatible update: %v", err)
	}
}
