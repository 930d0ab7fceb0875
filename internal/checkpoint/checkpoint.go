// Package checkpoint makes long allocation runs restartable: it journals
// solve progress — completed subproblem solutions and in-flight MIP
// incumbents — into durable generation files, so a crash,
// OOM kill, or preemption loses at most the work since the last checkpoint
// instead of the whole run (DESIGN.md §3.9).
//
// Durability contract. Every Save writes a fresh generation file by
// write-temp → fsync → rename → fsync-directory, so a crash at any
// instruction leaves either the previous generations or the complete new
// one — never a torn file under a final name that a rename made visible
// half-written. Each file carries a versioned header and a CRC32 of its
// payload; the loader verifies both and falls back to the previous
// generation when the newest is torn, truncated, or bit-flipped (the store
// keeps the two newest generations for exactly this reason). writeDurably is
// the only sanctioned way to write checkpoint files — generations and the
// leader lease both go through it, and the fragvet analyzer `atomicwrite`
// flags direct os.WriteFile/os.Create calls on checkpoint paths elsewhere.
// Every file-system call goes through an FS (fs.go), so a test can crash,
// tear or fail any of them.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File format: an 8-byte magic, a version, the payload length, and a CRC32
// (IEEE) of the payload, followed by the JSON-encoded Snapshot. Fixed-width
// fields are little-endian.
const (
	magic      = "FRAGCKPT"
	version    = 1
	headerSize = 8 + 4 + 8 + 4
)

// Store owns one checkpoint directory and its generation files
// (gen-%08d.ckpt). Saves are serialized; the newest two generations are
// kept, older ones pruned.
type Store struct {
	fs    FS
	dir   string
	fence func() error

	mu  sync.Mutex
	gen uint64 // newest generation written or found on disk
}

// Open creates dir if needed and scans it for existing generations.
func Open(dir string) (*Store, error) { return OpenFS(OS, dir) }

// OpenFS is Open on the file system fsys.
func OpenFS(fsys FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st := &Store{fs: fsys, dir: dir}
	gens, err := scanGenerations(fsys, dir)
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		st.gen = gens[len(gens)-1]
	}
	return st, nil
}

// Dir returns the checkpoint directory.
func (st *Store) Dir() string { return st.dir }

// SetFence installs a gate consulted at the top of every durable save. A
// non-nil error from the fence aborts the save before any byte is written —
// this is how a replicated service keeps a deposed leader from journaling:
// the fence verifies the leader lease (epoch and holder) on every write, so
// once the lease is lost or taken over with a higher fencing epoch, the old
// leader's generations can never reach the shared journal (DESIGN.md §3.13).
func (st *Store) SetFence(f func() error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fence = f
}

// scanGenerations lists a directory's generation numbers in ascending order.
// It is shared by the writing Store and the read-only Watcher.
func scanGenerations(fsys FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var gens []uint64
	for _, e := range entries {
		var g uint64
		if n, err := fmt.Sscanf(e.Name(), "gen-%d.ckpt", &g); err == nil && n == 1 &&
			e.Name() == genName(g) {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

func genName(g uint64) string { return fmt.Sprintf("gen-%08d.ckpt", g) }

// frame wraps an opaque payload with the versioned, checksummed header. The
// framing is payload-agnostic: the Store durably persists whatever bytes it
// is given, so solver snapshots and the allocation service's own state share
// one write path and one corruption-recovery story.
func frame(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	copy(buf[0:8], magic)
	binary.LittleEndian.PutUint32(buf[8:12], version)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	return buf
}

// unframe verifies the header and CRC and returns the payload. Any mismatch
// — magic, version, length, or checksum — is an error, which the loaders
// treat as "this generation is corrupt, fall back".
func unframe(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("checkpoint: file truncated below header (%d bytes)", len(data))
	}
	if string(data[0:8]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[0:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", v, version)
	}
	plen := binary.LittleEndian.Uint64(data[12:20])
	if uint64(len(data)-headerSize) != plen {
		return nil, fmt.Errorf("checkpoint: payload length %d does not match header %d", len(data)-headerSize, plen)
	}
	payload := data[headerSize:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[20:24]); got != want {
		return nil, fmt.Errorf("checkpoint: payload CRC mismatch (got %08x, want %08x)", got, want)
	}
	return payload, nil
}

// Save durably writes snap as the next generation: write-temp → fsync →
// rename → fsync-directory, then prunes generations beyond the newest two.
// A crash at any point leaves the previous generations loadable.
func (st *Store) Save(snap *Snapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding snapshot: %w", err)
	}
	return st.saveFramed(frame(payload))
}

// SaveRaw durably writes an opaque payload as the next generation, with the
// same atomicity and retention guarantees as Save. The allocation service
// journals its own state (desired scenarios, incumbent allocation) this way,
// through the one sanctioned durable-write path.
func (st *Store) SaveRaw(payload []byte) error {
	return st.saveFramed(frame(payload))
}

// saveFramed writes one already-framed generation durably.
func (st *Store) saveFramed(buf []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()

	if st.fence != nil {
		if err := st.fence(); err != nil {
			return fmt.Errorf("checkpoint: save fenced off: %w", err)
		}
	}
	gen := st.gen + 1
	final := filepath.Join(st.dir, genName(gen))
	if err := writeDurably(st.fs, final+".tmp", final, os.O_CREATE|os.O_TRUNC, buf); err != nil {
		return err
	}
	st.gen = gen
	st.prune()
	return nil
}

// prune removes generations older than the newest two, best-effort: a
// failed removal never fails a Save.
func (st *Store) prune() {
	gens, err := scanGenerations(st.fs, st.dir)
	if err != nil {
		return
	}
	for len(gens) > 2 {
		//fragvet:ignore errdrop — prune is documented best-effort: a failed removal of a superseded generation must not fail the Save that just committed a newer one
		st.fs.Remove(filepath.Join(st.dir, genName(gens[0])))
		gens = gens[1:]
	}
}

// writeDurably is the one durable write of the package: open tmp on fsys with
// the caller's flags, write data, fsync, close, rename tmp to final when the
// two differ, and fsync the directory so the new name itself survives a
// crash. A write, fsync, close or rename that fails removes tmp when it is
// not final, so no torn temp file is left behind. The open error stays
// matchable (a lease's O_EXCL claim tests for os.ErrExist).
func writeDurably(fsys FS, tmp, final string, flags int, data []byte) error {
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|flags, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && tmp != final {
		err = fsys.Rename(tmp, final)
	}
	if err != nil && tmp != final {
		err = errors.Join(err, fsys.Remove(tmp))
	}
	if err == nil {
		err = fsys.SyncDir(filepath.Dir(final))
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load returns the newest generation that decodes and verifies as a
// Snapshot, falling back through older generations when the newest is torn
// or corrupt. It returns (nil, nil) when the directory holds no generations
// at all, and an error only when generations exist but none is loadable.
func (st *Store) Load() (*Snapshot, error) {
	var snap *Snapshot
	_, err := st.loadNewest(func(payload []byte) error {
		s := &Snapshot{}
		if err := json.Unmarshal(payload, s); err != nil {
			return fmt.Errorf("checkpoint: decoding payload: %w", err)
		}
		snap = s
		return nil
	})
	return snap, err
}

// LoadRaw returns the newest generation's opaque payload (the counterpart of
// SaveRaw), with the same fallback semantics as Load: (nil, nil) on an empty
// directory, an error only when generations exist but none verifies.
func (st *Store) LoadRaw() ([]byte, error) {
	return st.loadNewest(nil)
}

// loadNewest returns the newest payload whose frame verifies and which
// accept, when non-nil, takes; a frame failure or an accept error means
// "corrupt, fall back to the previous generation". (nil, nil) means the
// directory holds no generation at all.
func (st *Store) loadNewest(accept func(payload []byte) error) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	gen, payload, skipped, err := newestVerified(st.fs, st.dir, 0, accept)
	if err == nil && gen == 0 && len(skipped) > 0 {
		err = fmt.Errorf("checkpoint: no loadable generation in %s: %w", st.dir, errors.Join(skipped...))
	}
	return payload, err
}

// newestVerified walks dir's generations newest-first, no further back than
// after (a generation its caller has already seen bounds the fallback), and
// returns the first whose file reads, whose frame verifies and which accept,
// when non-nil, takes. gen is 0 when none did; skipped says why each newer
// candidate was passed over. The writing Store and the read-only Watcher
// share it, so a torn or bit-flipped tail means the same thing to both.
func newestVerified(fsys FS, dir string, after uint64, accept func(payload []byte) error) (gen uint64, payload []byte, skipped []error, err error) {
	gens, err := scanGenerations(fsys, dir)
	if err != nil {
		return 0, nil, nil, err
	}
	for i := len(gens) - 1; i >= 0 && gens[i] > after; i-- {
		data, err := fsys.ReadFile(filepath.Join(dir, genName(gens[i])))
		if err == nil {
			payload, err = unframe(data)
		}
		if err == nil && accept != nil {
			err = accept(payload)
		}
		if err == nil {
			return gens[i], payload, skipped, nil
		}
		skipped = append(skipped, fmt.Errorf("%s: %w", genName(gens[i]), err))
	}
	return 0, nil, skipped, nil
}
