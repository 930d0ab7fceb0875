package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/core"
	"fragalloc/internal/model"
	"fragalloc/internal/scenario"
)

// driftOnce restarts a daemon on cfg's state directory — bootstrapping it
// when the journal holds no incumbent — applies one drift update, waits for
// its adoption, and returns the adopted incumbent and the status after it.
func driftOnce(t *testing.T, cfg Config) (*Incumbent, Status) {
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
	epoch, err := s.Apply(driftUpdate())
	if err != nil {
		t.Fatal(err)
	}
	go s.Run(ctx)
	if ok, err := s.WaitEpoch(ctx, epoch); !ok || err != nil {
		t.Fatalf("WaitEpoch(%d) = (%v, %v), want adoption", epoch, ok, err)
	}
	inc, _ := s.Incumbent()
	return inc, s.Status()
}

// bootIn bootstraps a daemon on cfg's state directory and returns the
// journaled frame of its first incumbent, decoded loosely so a test can
// edit it.
func bootIn(t *testing.T, cfg Config) (*checkpoint.Store, map[string]json.RawMessage) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Open(filepath.Join(cfg.StateDir, "state"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := st.LoadRaw()
	if err != nil {
		t.Fatal(err)
	}
	var frame map[string]json.RawMessage
	if err := json.Unmarshal(raw, &frame); err != nil {
		t.Fatal(err)
	}
	if frame["bases"] == nil {
		t.Fatal("the boot incumbent was journaled without bases")
	}
	return st, frame
}

// basisStarts decodes the status's basis-start counts.
func basisStarts(t *testing.T, st Status) core.BasisStarts {
	t.Helper()
	var bs core.BasisStarts
	if err := json.Unmarshal(st.BasisStarts, &bs); err != nil {
		t.Fatalf("basis_starts %s: %v", st.BasisStarts, err)
	}
	return bs
}

// TestServiceCarriesBases follows the bases through one epoch: the boot
// solve journals one per subproblem with its incumbent, the drift solve's
// dives are all offered them, and the drift incumbent's own bases are what
// the state journal holds, bit for bit.
func TestServiceCarriesBases(t *testing.T) {
	cfg := crashConfig(t, t.TempDir(), nil)
	_, frame := bootIn(t, cfg)
	var boot map[string]*checkpoint.Basis
	if err := json.Unmarshal(frame["bases"], &boot); err != nil || len(boot) != 3 {
		t.Fatalf("boot journaled bases for %d subproblems (%v), want r, r.0 and r.1", len(boot), err)
	}
	inc, st := driftOnce(t, cfg)
	if bs := basisStarts(t, st); bs.Dives+bs.DivesCold != 3 || bs.Dives == 0 {
		t.Errorf("drift solve: %v, want all three dives offered the boot bases", bs)
	}
	store, err := checkpoint.Open(filepath.Join(cfg.StateDir, "state"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := store.LoadRaw()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := decodePersisted(cfg.Workload, raw)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Bases == nil || !bytes.Equal(ps.Bases, inc.Bases) {
		t.Errorf("journaled bases %.80s… differ from the incumbent's %.80s…", ps.Bases, inc.Bases)
	}
}

// TestServiceJournalBasesStartCold restarts a daemon on a state journal
// whose incumbent carries no usable bases — none, as journals written
// before bases were carried; unreadable ones; ones whose roles name nothing
// in the model — and requires the next solve to start every dive cold,
// adopt, and journal fresh bases, never to fail.
func TestServiceJournalBasesStartCold(t *testing.T) {
	for _, c := range []struct {
		name  string
		bases string // "" drops the field
		warn  bool   // the daemon logs that it could not read them
	}{
		{"journal without bases", "", false},
		{"unreadable bases", `{"r":{"basic":"x"}}`, true},
		{"bases of another model", `{"r":{"basic":[[99,0,0,0]],"tight":[[98,0,0,0]]},"r.0":{"basic":[[97,1,2,3]],"tight":null}}`, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := crashConfig(t, t.TempDir(), nil)
			store, frame := bootIn(t, cfg)
			delete(frame, "bases")
			if c.bases != "" {
				frame["bases"] = json.RawMessage(c.bases)
			}
			payload, err := json.Marshal(frame)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.SaveRaw(payload); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var log []string
			cfg.Logf = func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				log = append(log, fmt.Sprintf(format, args...))
			}
			inc, st := driftOnce(t, cfg)
			if bs := basisStarts(t, st); bs.Dives != 0 || bs.DivesCold != 0 {
				t.Errorf("drift solve: %v, want every dive cold", bs)
			}
			if inc.Bases == nil {
				t.Error("the drift incumbent journaled no bases of its own")
			}
			mu.Lock()
			warned := strings.Contains(strings.Join(log, "\n"), "journaled bases are unreadable, solving cold")
			mu.Unlock()
			if warned != c.warn {
				t.Errorf("warning logged: %v, want %v", warned, c.warn)
			}
		})
	}
}

// TestServiceMemoryDaemonCarriesBases runs a memory-only daemon and a
// durable one on the same config and the same seeded drift stream and
// requires them to adopt bit-identical allocations, after the same number of
// LP iterations and the same basis starts, at every epoch: the state
// directory decides what reaches disk, never which bases a solve starts
// from.
func TestServiceMemoryDaemonCarriesBases(t *testing.T) {
	cfg := crashConfig(t, "", nil)
	cfg.Scenarios = scenario.InSample(cfg.Workload, 4, 0.6, 3)
	cfg.ReduceTo = 4
	updates := GenerateDrift(cfg.Workload, cfg.Scenarios, DriftConfig{Updates: 12, Seed: 5})

	type adoption struct {
		alloc  *model.Allocation
		iters  int
		starts string
	}
	run := func(stateDir string) []adoption {
		t.Helper()
		c := cfg
		c.StateDir = stateDir
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
		defer cancel()
		if err := s.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Run(ctx)
		}()
		defer func() { cancel(); <-done }()
		var out []adoption
		for i, u := range updates {
			epoch, err := s.Apply(u)
			if err != nil {
				t.Fatalf("update %d: %v", i+1, err)
			}
			if ok, err := s.WaitEpoch(ctx, epoch); !ok || err != nil {
				t.Fatalf("WaitEpoch(%d) = (%v, %v), want adoption", epoch, ok, err)
			}
			inc, _ := s.Incumbent()
			out = append(out, adoption{inc.Allocation, inc.LPIters, string(s.Status().BasisStarts)})
		}
		return out
	}
	mem, durable := run(""), run(t.TempDir())
	var carried int
	for i := range updates {
		var bs core.BasisStarts
		if err := json.Unmarshal([]byte(mem[i].starts), &bs); err != nil {
			t.Fatalf("basis_starts %s: %v", mem[i].starts, err)
		}
		carried += bs.Dives
		m, d := mem[i], durable[i]
		if !reflect.DeepEqual(m.alloc, d.alloc) || m.iters != d.iters || m.starts != d.starts {
			t.Errorf("epoch %d: memory-only daemon adopted %v after %d LP iterations (%s), durable %v after %d (%s)",
				i+1, m.alloc.Fragments, m.iters, m.starts, d.alloc.Fragments, d.iters, d.starts)
		}
	}
	if carried == 0 {
		t.Error("the memory-only daemon started no dive from a carried basis")
	}
}
