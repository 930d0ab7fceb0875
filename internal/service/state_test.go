package service

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"fragalloc/internal/core"
	"fragalloc/internal/greedy"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

// The transition tests below run the daemon's state machine with no
// goroutine, sleep, disk or HTTP: a state value, an event, and what came out.

var stateT0 = time.Unix(1_000_000, 0)

// observe is everything a state can be asked without moving it.
func observe(st *state) (view, persistedState) {
	return st.view(stateT0), st.persisted()
}

// testIncumbent is a valid incumbent for cfg's workload, solved greedily.
func testIncumbent(t *testing.T, cfg Config, epoch uint64) *Incumbent {
	t.Helper()
	alloc, err := greedy.AllocateScenarios(cfg.Workload, model.DefaultScenario(cfg.Workload), cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	return &Incumbent{Allocation: alloc, Epoch: epoch, Outcome: "optimal", W: 3, V: 2, AdoptedAt: stateT0}
}

func ops(effs []effect) []effectOp {
	var out []effectOp
	for _, e := range effs {
		out = append(out, e.op)
	}
	return out
}

// TestStateIngest is the ingest table: what each kind of update does to the
// state in each role, and the effects an accepted one obliges.
func TestStateIngest(t *testing.T) {
	spec, err := core.ParseChunks("2+1")
	if err != nil {
		t.Fatal(err)
	}
	valid := driftUpdate()
	for _, c := range []struct {
		name    string
		chunks  *core.ChunkSpec
		as      Role
		update  Update
		wantErr string // substring; "" = accepted
	}{
		{name: "valid", as: RoleSingle, update: valid},
		{name: "leader", as: RoleLeader, update: valid},
		{name: "empty update still advances the epoch", as: RoleSingle},
		{name: "scenario out of range", as: RoleSingle, wantErr: "names scenario 99",
			update: Update{FreqDeltas: []FreqDelta{{Scenario: 99, Query: 0, Delta: 1}}}},
		{name: "observation of the wrong length", as: RoleSingle, wantErr: "has 2 frequencies",
			update: Update{Observe: [][]float64{{1, 2}}}},
		{name: "set_k below one", as: RoleSingle, update: Update{SetK: -1}, wantErr: "need at least one node"},
		{name: "set_k against a fixed chunk spec", chunks: spec, as: RoleSingle, update: Update{SetK: 5},
			wantErr: `set_k 5 conflicts with the fixed chunk spec "2+1" (3 nodes)`},
		{name: "set_k equal to the chunk spec", chunks: spec, as: RoleSingle, update: Update{SetK: 3}},
		{name: "resize without a chunk spec", as: RoleSingle, update: Update{SetK: 5}},
		{name: "follower", as: RoleFollower, update: valid, wantErr: "updates go to http://leader.test"},
		{name: "candidate", as: RoleCandidate, update: valid, wantErr: "updates go to http://leader.test"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := serviceConfig(t)
			cfg.Chunks = c.chunks
			st := newState(cfg, model.DefaultScenario(cfg.Workload), 1, stateT0)
			st.setRole(c.as, "http://leader.test", 0)
			beforeView, beforeFrame := observe(&st)

			epoch, effs, err := st.ingest(c.update, stateT0)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("ingest = %v, want an error containing %q", err, c.wantErr)
				}
				if epoch != 0 || effs != nil {
					t.Errorf("a refused update returned epoch %d and effects %v", epoch, effs)
				}
				if v, frame := observe(&st); !reflect.DeepEqual(v, beforeView) || !reflect.DeepEqual(frame, beforeFrame) {
					t.Errorf("a refused update moved the state:\n got %+v\nwant %+v", v, beforeView)
				}
				var notLeader *NotLeaderError
				if refused := c.as == RoleFollower || c.as == RoleCandidate; errors.As(err, &notLeader) != refused {
					t.Errorf("role %s: ingest = %v", c.as, err)
				}
				if werr := st.writeAuthority(); errors.As(werr, &notLeader) != errors.As(err, &notLeader) {
					t.Errorf("role %s: publish gate = %v, ingest = %v; they must agree on the write authority", c.as, werr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := []effect{
				{op: effJournal, text: "epoch 1", ack: true},
				{op: effWake},
			}
			if epoch != 1 || !reflect.DeepEqual(effs, want) {
				t.Errorf("ingest = epoch %d, effects %+v; want epoch 1, %+v", epoch, effs, want)
			}
			v, frame := observe(&st)
			if v.Epoch != 1 || frame.Epoch != 1 {
				t.Errorf("after one accepted update the epoch is %d (journal frame %d)", v.Epoch, frame.Epoch)
			}
			if frame.Scenarios == beforeFrame.Scenarios {
				t.Error("an accepted update mutated the scenario set in place; attempts hold references to the old one")
			}
			if c.update.SetK > 0 && v.K != c.update.SetK {
				t.Errorf("K = %d after set_k %d", v.K, c.update.SetK)
			}
		})
	}
}

// TestStateAdmission pins the gates' order and arithmetic: with MaxPending
// updates pending the next is refused whoever sends it and whenever, a
// refusal by the role or the queue gate consumes no token, and only an
// adoption reopens the queue.
func TestStateAdmission(t *testing.T) {
	cfg := serviceConfig(t)
	cfg.Admission = &AdmissionConfig{MaxPending: 2, Rate: 0.001, Burst: 3}
	st := newState(cfg, model.DefaultScenario(cfg.Workload), 1, stateT0)
	u := driftUpdate()
	var overloaded *OverloadedError

	for i := 1; i <= 2; i++ {
		if _, _, err := st.ingest(u, stateT0); err != nil {
			t.Fatalf("pending update %d of 2 refused: %v", i, err)
		}
	}
	for i := 0; i < 50; i++ {
		_, _, err := st.ingest(u, stateT0.Add(time.Duration(i)*time.Second))
		if !errors.As(err, &overloaded) || overloaded.Reason != "queue" || overloaded.RetryAfter < time.Second {
			t.Fatalf("update %d past the pending bound: %v, want a queue refusal with a retry hint", i+3, err)
		}
	}
	st.setRole(RoleFollower, "", 0)
	if _, _, err := st.ingest(u, stateT0); err == nil {
		t.Fatal("a follower accepted an update")
	}
	st.setRole(RoleSingle, "", 0)

	// The adoption of epoch 2 drains the queue. Two tokens went to the two
	// accepted updates; the 51 refusals since must have left the third.
	st.adopt(testIncumbent(t, cfg, 2), nil, 0)
	if _, _, err := st.ingest(u, stateT0); err != nil {
		t.Fatalf("update after the queue drained: %v; a refused update consumed a token", err)
	}
	_, _, err := st.ingest(u, stateT0)
	if !errors.As(err, &overloaded) || overloaded.Reason != "rate" || overloaded.RetryAfter <= 0 {
		t.Fatalf("update past the burst: %v, want a rate refusal with a retry hint", err)
	}
	if v := st.view(stateT0); v.Epoch != 3 || v.StaleUpdates != 1 {
		t.Errorf("after 3 accepted updates and 53 refusals: epoch %d, %d stale", v.Epoch, v.StaleUpdates)
	}
}

// TestStateReclustering walks the drift ladder on the state alone: folds
// below reclusterThreshold × the clustered set's size keep the clustering,
// the fold that crosses it marks it dirty, a re-clustering computed against a
// snapshot an update has since replaced is not installed, and one computed
// against the current snapshot is.
func TestStateReclustering(t *testing.T) {
	cfg := reducedConfig(t) // 12 scenarios in 4 clusters
	cluster := func(scen *model.ScenarioSet) *scenario.Reduction {
		t.Helper()
		red, err := scenario.Reduce(cfg.Workload, scen, scenario.ReduceConfig{R: cfg.ReduceTo, Seed: reduceSeed})
		if err != nil {
			t.Fatal(err)
		}
		return red
	}
	st := newState(cfg, cfg.Scenarios.Clone(), 1, stateT0)
	st.setClustering(cluster(cfg.Scenarios), cfg.Scenarios.S())

	observeOne := Update{Observe: [][]float64{append([]float64(nil), cfg.Scenarios.Frequencies[0]...)}}
	for i := 1; i <= 3; i++ {
		if _, _, err := st.ingest(observeOne, stateT0); err != nil {
			t.Fatal(err)
		}
		p := st.beginAttempt()
		if p.SolveSet == nil {
			t.Fatalf("drift %d of the 3 the threshold allows already demands a re-clustering", i)
		}
		if p.SolveSet.S() != 4 || p.Scen.S() != 12+i {
			t.Fatalf("attempt after fold %d solves %d representatives of %d scenarios, want 4 of %d", i, p.SolveSet.S(), p.Scen.S(), 12+i)
		}
	}
	// Two deltas to one scenario are one drifted vector, and the fourth unit.
	if _, _, err := st.ingest(Update{FreqDeltas: []FreqDelta{{Scenario: 2, Query: 1, Delta: 5}, {Scenario: 2, Query: 4, Delta: 3}}}, stateT0); err != nil {
		t.Fatal(err)
	}
	if v := st.view(stateT0); v.DriftSinceRecluster != 4 || v.Reclusterings != 0 {
		t.Fatalf("drift %g after four units, %d re-clusterings", v.DriftSinceRecluster, v.Reclusterings)
	}
	stale := st.beginAttempt()
	if stale.SolveSet != nil {
		t.Fatal("drift 4 > 0.25 × 12 did not mark the clustering dirty")
	}

	// An update lands while the attempt re-clusters its snapshot.
	if _, _, err := st.ingest(observeOne, stateT0); err != nil {
		t.Fatal(err)
	}
	if st.recluster(cluster(stale.Scen), stale.Scen) {
		t.Fatal("a re-clustering of a replaced snapshot was installed")
	}
	if v := st.view(stateT0); v.Reclusterings != 0 || v.DriftSinceRecluster != 5 {
		t.Fatalf("a dropped re-clustering moved the accounting: %+v", v.Status)
	}
	fresh := st.beginAttempt()
	if fresh.SolveSet != nil {
		t.Fatal("the clustering is no longer dirty after a dropped re-clustering")
	}
	if !st.recluster(cluster(fresh.Scen), fresh.Scen) {
		t.Fatal("a re-clustering of the current snapshot was dropped")
	}
	if v := st.view(stateT0); v.Reclusterings != 1 || v.DriftSinceRecluster != 0 || v.ReducedScenarios != 4 {
		t.Fatalf("after the re-clustering: %+v", v.Status)
	}
	if p := st.beginAttempt(); p.SolveSet == nil || p.Scen.S() != 16 {
		t.Fatal("the attempt after a re-clustering does not solve over the new reduced set")
	}
}

// TestStateAdoptReject pins the attempt bookkeeping and — the crash contract
// — the exact, ordered effect list of an adoption.
func TestStateAdoptReject(t *testing.T) {
	cfg := serviceConfig(t)
	st := newState(cfg, model.DefaultScenario(cfg.Workload), 1, stateT0)

	boot := testIncumbent(t, cfg, 0)
	effs := st.adopt(boot, nil, 1234*time.Millisecond)
	want := []effect{
		{op: effJournal, text: "the adopted incumbent"},
		{op: effRelease},
		{op: effRetire},
		{op: effLog, text: "service: adopted epoch %d (%s, W/V=%.4f, %v, warm=%v)",
			args: []any{uint64(0), "optimal", 1.5, 1234 * time.Millisecond, false}},
	}
	if !reflect.DeepEqual(effs, want) {
		t.Fatalf("adoption effects:\n got %+v\nwant %+v", effs, want)
	}
	if v := st.view(stateT0.Add(time.Minute)); v.Inc != boot || v.Adoptions != 1 || v.LastDiff != nil || v.Age != time.Minute || v.ReplicationFactor != 1.5 {
		t.Fatalf("after the first adoption: %+v", v)
	}

	for i := 1; i <= 2; i++ {
		if _, _, err := st.ingest(driftUpdate(), stateT0); err != nil {
			t.Fatal(err)
		}
	}
	p := st.beginAttempt()
	if p.Epoch != 2 || p.Warm != boot.Allocation || p.FromEpoch != 0 || p.SolveSet != p.Scen {
		t.Fatalf("attempt plan %+v, want epoch 2 warm-started from the boot incumbent over the full set", p)
	}

	// Rejections: failure count, reason and covered epoch move; the
	// incumbent, the diff and the adoption count do not.
	for i := 1; i <= 3; i++ {
		effs = st.reject(p.Epoch, errors.New("solver on fire"))
		if !reflect.DeepEqual(ops(effs), []effectOp{effRelease}) {
			t.Fatalf("rejection effects %+v, want the waiters released and nothing else", effs)
		}
		v := st.view(stateT0)
		if v.ConsecutiveFailures != i || v.LastError != "solver on fire" || v.AttemptEpoch != 2 {
			t.Fatalf("after rejection %d: %+v", i, v)
		}
		if v.Inc != boot || v.LastDiff != nil || v.Adoptions != 1 || v.StaleUpdates != 2 {
			t.Fatalf("rejection %d touched the served state: %+v", i, v)
		}
	}
	// Backoff: base × 2^(failures−1) within the ±25% jitter, reproducible
	// from the seed, clamped to the maximum.
	if d, lo, hi := st.retryDelay(), 3*cfg.retryBase, 5*cfg.retryBase; d < lo || d > hi {
		t.Errorf("retry delay after 3 failures = %v, want within [%v, %v]", d, lo, hi)
	}
	twin := newState(cfg, model.DefaultScenario(cfg.Workload), 1, stateT0)
	again := newState(cfg, model.DefaultScenario(cfg.Workload), 1, stateT0)
	for i := 0; i < 12; i++ {
		twin.reject(1, errors.New("x"))
		again.reject(1, errors.New("x"))
		d := twin.retryDelay()
		if d != again.retryDelay() {
			t.Fatal("two states with one jitter seed drew different delays")
		}
		if d <= 0 || d > cfg.retryMax {
			t.Fatalf("retry delay %v after %d failures escapes (0, %v]", d, i+1, cfg.retryMax)
		}
	}

	// Adoption: everything a rejection moved is cleared, and only now does
	// the diff change.
	diff := &Diff{FromEpoch: 0, ToEpoch: 2}
	next := testIncumbent(t, cfg, 2)
	effs = st.adopt(next, diff, 0)
	if !reflect.DeepEqual(ops(effs), ops(want)) || effs[3].args[4] != true {
		t.Fatalf("re-optimization adoption effects %+v", effs)
	}
	v := st.view(stateT0)
	if v.ConsecutiveFailures != 0 || v.LastError != "" || v.AttemptEpoch != 2 || v.LastDiff != diff || v.Inc != next || v.Adoptions != 2 || v.StaleUpdates != 0 {
		t.Fatalf("after the adoption: %+v", v)
	}
	// An attempt that targeted an older epoch never rolls the covered epoch back.
	st.reject(1, errors.New("late"))
	if v := st.view(stateT0); v.AttemptEpoch != 2 || v.LastDiff != diff {
		t.Fatalf("a late rejection rolled the bookkeeping back: %+v", v)
	}
}

// TestStateInstall pins the journal round trip on the state alone: the frame
// a state would journal, decoded and installed into a blank state, yields the
// same desired state and incumbent; a tailed generation differs from a boot
// or promotion install only in the follower's staleness fields; a frame for
// another workload is refused before it can be installed.
func TestStateInstall(t *testing.T) {
	cfg := serviceConfig(t)
	src := newState(cfg, model.DefaultScenario(cfg.Workload), 1, stateT0)
	for i := 0; i < 3; i++ {
		if _, _, err := src.ingest(driftUpdate(), stateT0); err != nil {
			t.Fatal(err)
		}
	}
	src.adopt(testIncumbent(t, cfg, 2), &Diff{ToEpoch: 2}, 0)
	srcFrame := src.persisted()
	payload := mustJSON(t, srcFrame)

	ps, err := decodePersisted(cfg.Workload, payload)
	if err != nil {
		t.Fatal(err)
	}
	blank := func() state {
		other := serviceConfig(t)
		other.K = 7
		return newState(other, model.DefaultScenario(cfg.Workload), 1, stateT0)
	}
	boot, tail := blank(), blank()
	boot.install(ps, nil, 0, stateT0)
	tail.install(ps, nil, 9, stateT0)

	if got := boot.persisted(); !reflect.DeepEqual(mustJSON(t, got), payload) {
		t.Errorf("install then journal is not the identity:\n got %s\nwant %s", mustJSON(t, got), payload)
	}
	bv, tv := boot.view(stateT0.Add(time.Second)), tail.view(stateT0.Add(time.Second))
	if bv.Epoch != 3 || bv.IncumbentEpoch != 2 || bv.StaleUpdates != 1 || bv.K != cfg.K || bv.Attempts != 0 || bv.LastDiff != nil {
		t.Errorf("installed view %+v", bv)
	}
	if tv.TailGeneration != 9 || tv.TailAge != time.Second || bv.TailGeneration != 0 || bv.TailAge != 0 {
		t.Errorf("tail staleness: follower %d/%v, boot %d/%v", tv.TailGeneration, tv.TailAge, bv.TailGeneration, bv.TailAge)
	}
	tv.TailGeneration, tv.TailAge = 0, 0
	if !reflect.DeepEqual(tv, bv) {
		t.Errorf("a tailed install differs from a boot install beyond the staleness fields:\n tail %+v\n boot %+v", tv, bv)
	}

	foreign := serviceConfig(t)
	foreign.Workload.Fragments[0].Size++
	if _, err := decodePersisted(foreign.Workload, payload); err == nil {
		t.Error("a frame written for another workload decoded")
	}
	if _, err := decodePersisted(cfg.Workload, payload[:len(payload)/2]); err == nil {
		t.Error("half a frame decoded")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStatePurity is the guard on the split: state.go imports nothing that
// locks, blocks, does I/O or solves and never reads the clock, and no other
// file of the package reaches past the transitions into a state field.
func TestStatePurity(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	stateFile := pkgs["service"].Files["state.go"]
	if stateFile == nil {
		t.Fatal("state.go not found")
	}
	banned := map[string]bool{"os": true, "sync": true, "context": true, "net/http": true, "path/filepath": true,
		"fragalloc/internal/checkpoint": true, "fragalloc/internal/faultinject": true,
		"fragalloc/internal/core": true, "fragalloc/internal/mip": true}
	for _, imp := range stateFile.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
			t.Errorf("state.go imports %s", path)
		}
	}
	ast.Inspect(stateFile, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "time" && (n.Sel.Name == "Now" || n.Sel.Name == "Since") {
				t.Errorf("state.go reads the clock: time.%s at %s", n.Sel.Name, fset.Position(n.Pos()))
			}
		case *ast.ChanType, *ast.GoStmt, *ast.SelectStmt, *ast.SendStmt:
			t.Errorf("state.go has a channel or goroutine construct at %s", fset.Position(n.Pos()))
		case *ast.TypeSpec:
			if s, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "state" {
				for _, f := range s.Fields.List {
					for _, id := range f.Names {
						fields[id.Name] = true
					}
				}
			}
		}
		return true
	})
	if len(fields) < 20 {
		t.Fatalf("found only %d fields of state", len(fields))
	}
	for name, f := range pkgs["service"].Files {
		if name == "state.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && fields[sel.Sel.Name] {
				t.Errorf("%s names the state field %q outside state.go", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
