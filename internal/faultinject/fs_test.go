package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"fragalloc/internal/checkpoint"
)

// killed runs f and reports whether it died of a kill.
func killed(f func()) (died bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != ErrKilled {
				panic(r)
			}
			died = true
		}
	}()
	f()
	return false
}

// saveN saves payloads "1".."n" as generations of dir through fsys and
// reports how many saves completed before a kill.
func saveN(t *testing.T, fsys checkpoint.FS, dir string, n int) (done int) {
	t.Helper()
	st, err := checkpoint.OpenFS(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	killed(func() {
		for ; done < n; done++ {
			if err := st.SaveRaw([]byte{'1' + byte(done)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	return done
}

// newest is the payload a fresh store loads from dir.
func newest(t *testing.T, dir string) string {
	t.Helper()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := st.LoadRaw()
	if err != nil {
		t.Fatal(err)
	}
	return string(payload)
}

// TestFSKillAfterWrite: the kill lands once the N-th matching write is
// durable under its final name, and only matching writes count.
func TestFSKillAfterWrite(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	other := NewFS(checkpoint.OS, Fault{Op: Write, Path: "solve/gen-*", N: 1, Act: Kill})
	fsys := NewFS(other, Fault{Op: Write, Path: "state/gen-*", N: 2, Act: Kill})
	if done := saveN(t, fsys, dir, 3); done != 1 {
		t.Fatalf("the kill after write 2 let %d saves return", done)
	}
	if got := newest(t, dir); got != "2" {
		t.Fatalf("after the kill the journal loads %q, want the killed write's %q", got, "2")
	}
	if fsys.Hits() != 2 || other.Hits() != 0 {
		t.Fatalf("hits = %d, %d; want 2 matching writes and 0 on the other path", fsys.Hits(), other.Hits())
	}
}

// TestFSTearFallsBack: a torn write completes under its final name and
// kills; the loader rejects it and falls back to the previous generation.
func TestFSTearFallsBack(t *testing.T) {
	dir := t.TempDir()
	if done := saveN(t, NewFS(checkpoint.OS, Fault{Op: Write, Path: "gen-*", N: 2, Act: Tear}), dir, 3); done != 1 {
		t.Fatalf("the torn write 2 let %d saves return", done)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-00000002.ckpt")); err != nil {
		t.Fatalf("the torn generation is not under its final name: %v", err)
	}
	if got := newest(t, dir); got != "1" {
		t.Fatalf("the journal loads %q past a torn newest generation, want %q", got, "1")
	}
}

// TestFSFailedWrite: EIO at the fsync and ENOSPC at the write fail that one
// save, leave no generation and no temp file behind, and the next save goes
// through; a failed removal of the temp file is reported with the failure.
func TestFSFailedWrite(t *testing.T) {
	for _, c := range []struct {
		act   Act
		errno syscall.Errno
	}{{EIO, syscall.EIO}, {ENOSPC, syscall.ENOSPC}} {
		dir := t.TempDir()
		st, err := checkpoint.OpenFS(NewFS(checkpoint.OS, Fault{Op: Write, Path: "gen-*", N: 1, Act: c.act}), dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveRaw([]byte("lost")); !errors.Is(err, c.errno) {
			t.Fatalf("%s: save = %v, want %v", c.act, err, c.errno)
		}
		if got := newest(t, dir); got != "" {
			t.Fatalf("%s: a failed save left %q loadable", c.act, got)
		}
		if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err != nil || len(tmps) > 0 {
			t.Fatalf("%s: a failed save left %v on disk (%v)", c.act, tmps, err)
		}
		if err := st.SaveRaw([]byte("kept")); err != nil {
			t.Fatalf("%s: the save after the failed one: %v", c.act, err)
		}
		if got := newest(t, dir); got != "kept" {
			t.Fatalf("%s: the journal loads %q, want %q", c.act, got, "kept")
		}
	}

	// A removal of the temp file that fails too is joined into the error.
	fsys := NewFS(NewFS(checkpoint.OS, Fault{Op: Write, Path: "gen-*", N: 1, Act: ENOSPC}), Fault{Op: Remove, Path: "gen-*", N: 1, Act: EIO})
	st, err := checkpoint.OpenFS(fsys, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRaw([]byte("lost")); !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("save = %v, want the write's ENOSPC and the removal's EIO", err)
	}
}

// TestFSReadAndRemove: a kill before the lease file's removal leaves the
// lease on disk; an EIO on reading a generation is an error to a tailing
// Watcher, not "nothing new".
func TestFSReadAndRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "leader.lease")
	fsys := NewFS(checkpoint.OS, Fault{Op: Remove, Path: "leader.lease", N: 1, Act: Kill})
	l, _, err := checkpoint.AcquireLease(fsys, path, "a", "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !killed(func() { _ = l.Release() }) {
		t.Fatal("the release never reached the removal")
	}
	if li, err := checkpoint.ReadLease(checkpoint.OS, path); err != nil || li == nil || li.Holder != "a" {
		t.Fatalf("after a kill before the removal the lease reads (%+v, %v), want a's", li, err)
	}

	dir := t.TempDir()
	saveN(t, checkpoint.OS, dir, 1)
	w := checkpoint.NewWatcher(NewFS(checkpoint.OS, Fault{Op: Read, Path: "gen-*", N: 1, Act: EIO}), dir)
	if _, _, ok, err := w.Poll(); ok || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Poll over a failing read = (ok %v, %v), want the EIO", ok, err)
	}
	if _, payload, ok, err := w.Poll(); !ok || err != nil || string(payload) != "1" {
		t.Fatalf("the next Poll = (%q, ok %v, %v), want generation 1", payload, ok, err)
	}
}
