package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestWatcherTailsNewestGeneration pins the streaming contract: a fresh
// watcher surfaces the newest verified generation, intermediate generations
// written between polls are skipped (the newest wins), and a poll with
// nothing new reports ok=false.
func TestWatcherTailsNewestGeneration(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWatcher(OS, dir)

	if _, _, ok, err := w.Poll(); ok || err != nil {
		t.Fatalf("Poll on empty dir = (ok=%v, err=%v), want nothing", ok, err)
	}
	if err := st.SaveRaw([]byte("one")); err != nil {
		t.Fatal(err)
	}
	gen, payload, ok, err := w.Poll()
	if err != nil || !ok || string(payload) != "one" {
		t.Fatalf("Poll = (%d, %q, %v, %v), want generation 1 payload \"one\"", gen, payload, ok, err)
	}
	if err := st.SaveRaw([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRaw([]byte("three")); err != nil {
		t.Fatal(err)
	}
	gen2, payload, ok, err := w.Poll()
	if err != nil || !ok || string(payload) != "three" {
		t.Fatalf("Poll = (%d, %q, %v, %v), want the newest payload \"three\"", gen2, payload, ok, err)
	}
	if gen2 <= gen {
		t.Fatalf("generation did not advance: %d then %d", gen, gen2)
	}
	if _, _, ok, err := w.Poll(); ok || err != nil {
		t.Fatalf("Poll with nothing new = (ok=%v, err=%v)", ok, err)
	}
}

// TestWatcherMissingDir pins the boot order independence: a follower may
// start tailing before the leader has created the journal directory.
func TestWatcherMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-created-yet")
	w := NewWatcher(OS, dir)
	if _, _, ok, err := w.Poll(); ok || err != nil {
		t.Fatalf("Poll on missing dir = (ok=%v, err=%v), want quiet nothing", ok, err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRaw([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if _, payload, ok, err := w.Poll(); err != nil || !ok || string(payload) != "late" {
		t.Fatalf("Poll after late creation = (%q, %v, %v)", payload, ok, err)
	}
}

// TestWatcherTornTailFallsBack is the mid-write guarantee: when the newest
// generation is torn (truncated mid-payload, as a crashed or in-flight
// writer leaves it), the watcher serves the previous verified generation
// and never the corrupt frame; once a complete newer generation lands, it
// advances past the torn one.
func TestWatcherTornTailFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRaw([]byte("good-1")); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRaw([]byte("good-2")); err != nil {
		t.Fatal(err)
	}
	gens, err := scanGenerations(OS, dir)
	if err != nil || len(gens) != 2 {
		t.Fatalf("generations = %v, %v", gens, err)
	}
	// Tear the newest generation mid-payload, as a torn rename would.
	newest := filepath.Join(dir, genName(gens[len(gens)-1]))
	full, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, full[:headerSize+2], 0o644); err != nil {
		t.Fatal(err)
	}

	w := NewWatcher(OS, dir)
	gen, payload, ok, err := w.Poll()
	if err != nil || !ok {
		t.Fatalf("Poll = (ok=%v, err=%v), want the fallback generation", ok, err)
	}
	if string(payload) != "good-1" || gen != gens[0] {
		t.Fatalf("Poll = (gen %d, %q), want the previous verified generation %d %q", gen, payload, gens[0], "good-1")
	}

	// A watcher that has already surfaced good-2 must NOT regress to good-1
	// when the tail tears afterwards: the torn frame is "nothing new".
	if err := os.WriteFile(newest, full, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := NewWatcher(OS, dir)
	if _, p, ok, err := w2.Poll(); err != nil || !ok || string(p) != "good-2" {
		t.Fatalf("Poll = (%q, %v, %v), want good-2", p, ok, err)
	}
	if err := os.WriteFile(newest, full[:headerSize+2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := w2.Poll(); ok || err != nil {
		t.Fatalf("Poll after tail tore = (ok=%v, err=%v), want nothing new, not a regression", ok, err)
	}

	// The writer completes a newer generation; the watcher advances past
	// the torn frame.
	if err := st.SaveRaw([]byte("good-3")); err != nil {
		t.Fatal(err)
	}
	if _, p, ok, err := w2.Poll(); err != nil || !ok || string(p) != "good-3" {
		t.Fatalf("Poll after recovery = (%q, %v, %v), want good-3", p, ok, err)
	}
}

// TestWatcherTruncatedBelowHeader covers the severest tear: a tail file
// shorter than the frame header.
func TestWatcherTruncatedBelowHeader(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRaw([]byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRaw([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	gens, err := scanGenerations(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, genName(gens[len(gens)-1]))
	if err := os.WriteFile(newest, []byte("FRAG"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := NewWatcher(OS, dir)
	if _, p, ok, err := w.Poll(); err != nil || !ok || string(p) != "base" {
		t.Fatalf("Poll = (%q, %v, %v), want fallback to \"base\"", p, ok, err)
	}
}

// TestWatcherIgnoresTempFiles: dangling .tmp files from an interrupted save
// are not generations and never surface.
func TestWatcherIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRaw([]byte("real")); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, genName(99)+".tmp")
	if err := os.WriteFile(tmp, bytes.Repeat([]byte("x"), 64), 0o644); err != nil {
		t.Fatal(err)
	}
	w := NewWatcher(OS, dir)
	gen, p, ok, err := w.Poll()
	if err != nil || !ok || string(p) != "real" {
		t.Fatalf("Poll = (%d, %q, %v, %v), want the real generation only", gen, p, ok, err)
	}
	if _, _, ok, _ := w.Poll(); ok {
		t.Fatal("temp file surfaced as a generation")
	}
}

// TestStoreFenceBlocksSaves pins the fencing contract at the store level: a
// failing fence aborts SaveRaw before any generation is written, and
// lifting the fence restores writes.
func TestStoreFenceBlocksSaves(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRaw([]byte("pre-fence")); err != nil {
		t.Fatal(err)
	}
	st.SetFence(func() error { return ErrLeaseLost })
	if err := st.SaveRaw([]byte("fenced")); err == nil {
		t.Fatal("SaveRaw succeeded through a failing fence")
	}
	gens, err := scanGenerations(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("fenced save left %d generations, want 1", len(gens))
	}
	if payload, err := st.LoadRaw(); err != nil || string(payload) != "pre-fence" {
		t.Fatalf("LoadRaw = (%q, %v), want the pre-fence payload", payload, err)
	}
	st.SetFence(nil)
	if err := st.SaveRaw([]byte("after")); err != nil {
		t.Fatalf("SaveRaw after lifting the fence: %v", err)
	}
}

// TestLoadRawAndPollAgree feeds the writer-side loader and a fresh read-only
// tailer the same directories and checks they surface the same payload. The
// two differ only where their contracts say so: LoadRaw reports an error
// when generations exist but none verifies, Poll reports "nothing new".
func TestLoadRawAndPollAgree(t *testing.T) {
	// damage rewrites the newest generation file in place.
	damage := func(t *testing.T, dir string, f func(full []byte) []byte) {
		t.Helper()
		name := newestGen(t, dir)
		full, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, f(full), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	torn := func(full []byte) []byte { return full[:headerSize+2] }
	flipped := func(full []byte) []byte {
		out := append([]byte(nil), full...)
		out[len(out)-1] ^= 0x01
		return out
	}
	cases := []struct {
		name    string
		saves   []string
		prepare func(t *testing.T, dir string)
		want    string // "" = no payload
		loadErr bool
	}{
		{name: "empty"},
		{name: "torn newest frame", saves: []string{"one", "two"},
			prepare: func(t *testing.T, dir string) { damage(t, dir, torn) }, want: "one"},
		{name: "bit-flipped newest frame", saves: []string{"one", "two"},
			prepare: func(t *testing.T, dir string) { damage(t, dir, flipped) }, want: "one"},
		{name: "dangling tmp", saves: []string{"one"},
			prepare: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, genName(2)+".tmp"), frame([]byte("half")), 0o644); err != nil {
					t.Fatal(err)
				}
			}, want: "one"},
		{name: "only corrupt generations", saves: []string{"one", "two"},
			prepare: func(t *testing.T, dir string) {
				damage(t, dir, flipped)
				if err := os.WriteFile(filepath.Join(dir, genName(1)), []byte("FRAG"), 0o644); err != nil {
					t.Fatal(err)
				}
			}, loadErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tc.saves {
				if err := st.SaveRaw([]byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.prepare != nil {
				tc.prepare(t, dir)
			}
			loaded, lerr := st.LoadRaw()
			if (lerr != nil) != tc.loadErr {
				t.Fatalf("LoadRaw error = %v, want error: %v", lerr, tc.loadErr)
			}
			_, polled, ok, perr := NewWatcher(OS, dir).Poll()
			if perr != nil {
				t.Fatalf("Poll error = %v, want none", perr)
			}
			if ok != (tc.want != "") {
				t.Fatalf("Poll ok = %v with payload %q, want %q", ok, polled, tc.want)
			}
			if string(loaded) != tc.want || string(polled) != tc.want {
				t.Fatalf("LoadRaw = %q, Poll = %q, want both %q", loaded, polled, tc.want)
			}
		})
	}
}
