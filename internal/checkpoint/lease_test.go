package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func leasePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "leader.lease")
}

// forgeRenewedAt rewrites the lease file's renewal stamp, simulating a
// holder that has been paused or dead for the given duration.
func forgeRenewedAt(t *testing.T, path string, ago time.Duration) {
	t.Helper()
	li, err := ReadLease(OS, path)
	if err != nil || li == nil {
		t.Fatalf("ReadLease = (%+v, %v)", li, err)
	}
	li.RenewedAt = time.Now().Add(-ago)
	data, err := json.Marshal(li)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseAcquireRenewRelease walks the happy path: fresh acquisition at
// fencing epoch 1, renewals that keep the same epoch, and a release that
// clears the file for an immediate successor.
func TestLeaseAcquireRenewRelease(t *testing.T) {
	path := leasePath(t)
	l, info, err := AcquireLease(OS, path, "a", "http://a:1", time.Second)
	if err != nil || info != nil {
		t.Fatalf("AcquireLease = (%v, %+v, %v)", l, info, err)
	}
	if l.Epoch() != 1 {
		t.Fatalf("fresh lease epoch = %d, want 1", l.Epoch())
	}
	if err := l.Renew(); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if err := l.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	li, err := ReadLease(OS, path)
	if err != nil || li == nil || li.Holder != "a" || li.Epoch != 1 || li.Addr != "http://a:1" {
		t.Fatalf("ReadLease = (%+v, %v)", li, err)
	}

	// Held lease refuses a second candidate, reporting the holder.
	if _, held, err := AcquireLease(OS, path, "b", "http://b:2", time.Second); !errors.Is(err, ErrLeaseHeld) || held == nil || held.Holder != "a" {
		t.Fatalf("concurrent acquire = (%+v, %v), want ErrLeaseHeld by a", held, err)
	}

	if err := l.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if li, err := ReadLease(OS, path); err != nil || li != nil {
		t.Fatalf("lease file survived release: (%+v, %v)", li, err)
	}
	// Successor elects immediately at the next epoch... a *fresh* create
	// restarts at epoch 1, which is fine: fencing only needs monotonicity
	// within a file's lifetime, and the journal fence re-verifies holder.
	l2, _, err := AcquireLease(OS, path, "b", "", time.Second)
	if err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
	if l2.Holder() != "b" {
		t.Fatalf("post-release holder = %q", l2.Holder())
	}
}

// TestLeaseTakeoverBumpsFencingEpoch pins the deterministic-takeover rule:
// an expired lease is claimed at epoch+1, and the deposed holder's Renew
// and Check both fail with ErrLeaseLost from then on.
func TestLeaseTakeoverBumpsFencingEpoch(t *testing.T) {
	path := leasePath(t)
	a, _, err := AcquireLease(OS, path, "a", "", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	forgeRenewedAt(t, path, time.Hour) // a goes silent

	b, info, err := AcquireLease(OS, path, "b", "http://b:2", 500*time.Millisecond)
	if err != nil {
		t.Fatalf("takeover of an expired lease failed: (%+v, %v)", info, err)
	}
	if b.Epoch() != a.Epoch()+1 {
		t.Fatalf("takeover epoch = %d, want %d", b.Epoch(), a.Epoch()+1)
	}

	// The deposed holder wakes up: fencing rejects it everywhere.
	if err := a.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("deposed Renew = %v, want ErrLeaseLost", err)
	}
	if err := a.Check(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("deposed Check = %v, want ErrLeaseLost", err)
	}
	if !a.Lost() {
		t.Fatal("deposed lease not marked lost")
	}
	// Losing is sticky and releasing a lost lease must not disturb the
	// successor's file.
	if err := a.Release(); err != nil {
		t.Fatalf("deposed Release: %v", err)
	}
	if li, err := ReadLease(OS, path); err != nil || li == nil || li.Holder != "b" {
		t.Fatalf("successor's lease disturbed: (%+v, %v)", li, err)
	}
	if err := b.Renew(); err != nil {
		t.Fatalf("successor Renew: %v", err)
	}
}

// TestLeaseSelfExpiryIsLost: a holder whose own TTL lapsed (paused process)
// must treat its lease as lost even if no one has taken over yet — fencing
// errs on the safe side.
func TestLeaseSelfExpiryIsLost(t *testing.T) {
	path := leasePath(t)
	a, _, err := AcquireLease(OS, path, "a", "", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	forgeRenewedAt(t, path, time.Hour)
	if err := a.Check(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("Check on self-expired lease = %v, want ErrLeaseLost", err)
	}
}

// TestLeaseCorruptFileTakenOver: a lease file torn by a crash mid-creation
// decodes as an expired epoch-0 lease, so the cluster elects past it
// instead of wedging.
func TestLeaseCorruptFileTakenOver(t *testing.T) {
	path := leasePath(t)
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	li, err := ReadLease(OS, path)
	if err != nil || li == nil || li.Epoch != 0 || !li.Expired(time.Now()) {
		t.Fatalf("corrupt lease decoded as (%+v, %v), want expired epoch 0", li, err)
	}
	l, _, err := AcquireLease(OS, path, "a", "", time.Second)
	if err != nil {
		t.Fatalf("acquire over corrupt lease: %v", err)
	}
	if l.Epoch() != 1 {
		t.Fatalf("epoch over corrupt lease = %d, want 1", l.Epoch())
	}
}

// TestLeaseFenceOnStore wires a lease into Store.SetFence and proves the
// deposed leader's journal writes die at the fence while the successor's
// proceed — the split-brain guarantee the service relies on.
func TestLeaseFenceOnStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "leader.lease")
	st, err := Open(filepath.Join(dir, "state"))
	if err != nil {
		t.Fatal(err)
	}

	a, _, err := AcquireLease(OS, path, "a", "", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	st.SetFence(a.Check)
	if err := st.SaveRaw([]byte("from-a")); err != nil {
		t.Fatalf("live leader's save fenced: %v", err)
	}

	forgeRenewedAt(t, path, time.Hour)
	b, _, err := AcquireLease(OS, path, "b", "", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRaw([]byte("from-deposed-a")); err == nil {
		t.Fatal("deposed leader journaled through the fence")
	}
	if payload, err := st.LoadRaw(); err != nil || string(payload) != "from-a" {
		t.Fatalf("journal = (%q, %v), want the pre-deposition payload", payload, err)
	}

	// The successor opens its own store handle on the same directory and
	// continues the generation sequence.
	st2, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	st2.SetFence(b.Check)
	if err := st2.SaveRaw([]byte("from-b")); err != nil {
		t.Fatalf("successor's save fenced: %v", err)
	}
	if payload, err := st2.LoadRaw(); err != nil || string(payload) != "from-b" {
		t.Fatalf("journal = (%q, %v), want the successor's payload", payload, err)
	}
}

// TestLeaseWritesLeaveNoTempFiles: a crash-free fresh acquisition, a
// takeover and a renewal each leave the lease directory holding exactly the
// lease file — no *.tmp behind — and a file ReadLease parses back.
func TestLeaseWritesLeaveNoTempFiles(t *testing.T) {
	path := leasePath(t)
	check := func(step, holder string, epoch uint64) {
		t.Helper()
		entries, err := os.ReadDir(filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("%s left %v, want only %s", step, names, filepath.Base(path))
		}
		li, err := ReadLease(OS, path)
		if err != nil || li == nil || li.Holder != holder || li.Epoch != epoch || li.TTL != time.Second || li.RenewedAt.IsZero() {
			t.Fatalf("%s: ReadLease = (%+v, %v), want holder %s epoch %d", step, li, err, holder, epoch)
		}
	}
	if _, _, err := AcquireLease(OS, path, "a", "http://a:1", time.Second); err != nil {
		t.Fatal(err)
	}
	check("fresh acquire", "a", 1)
	forgeRenewedAt(t, path, time.Hour)
	b, _, err := AcquireLease(OS, path, "b", "http://b:2", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	check("takeover", "b", 2)
	if err := b.Renew(); err != nil {
		t.Fatal(err)
	}
	check("renew", "b", 2)
}
