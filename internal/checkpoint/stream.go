// Frame streaming: the read-only side of the journal that standby replicas
// tail. A Watcher observes a checkpoint directory that some other process
// (the leader) writes with SaveRaw, and surfaces each new verified
// generation's payload — CRC-checked, torn-frame tolerant — without ever
// participating in the write path. Replication in the allocation service is
// exactly this: followers tail the leader's state journal and keep a warm
// incumbent, so a failover serves the journaled state the moment the lease
// is won (DESIGN.md §3.13).
package checkpoint

import (
	"errors"
	"io/fs"
)

// Watcher tails a checkpoint directory for new generations. It is strictly
// read-only — it never creates the directory, writes a file, or prunes —
// and tolerates every in-progress-write artifact a live journal exhibits:
// a missing directory (the writer has not started), dangling .tmp files,
// and a newest generation that is torn, truncated, or bit-flipped (the
// frame fails CRC and the watcher falls back to the previous generation,
// exactly like the loaders). A Watcher is not safe for concurrent use;
// give each tailing goroutine its own.
type Watcher struct {
	dir  string
	last uint64 // newest generation already surfaced
}

// NewWatcher tails dir from the beginning: the first successful Poll
// returns the newest verified generation currently on disk.
func NewWatcher(dir string) *Watcher {
	return &Watcher{dir: dir}
}

// Poll returns the newest generation that verifies and is newer than
// anything Poll has returned before. ok is false when there is nothing
// new — including when the directory does not exist yet, holds no
// generations, or when every generation newer than the last surfaced one is
// corrupt (a torn tail frame mid-write is expected, not an error; the next
// Poll sees the completed write). err is reserved for real I/O failures
// reading the directory or a generation file.
func (w *Watcher) Poll() (gen uint64, payload []byte, ok bool, err error) {
	gen, payload, skipped, err := newestVerified(w.dir, w.last, nil)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil, false, nil
		}
		return 0, nil, false, err
	}
	for _, serr := range skipped {
		// A frame that fails verification is a torn tail, and the writer
		// prunes old generations concurrently, so a file that vanished
		// between the scan and the read is stale, not broken. Any other
		// failure to read a generation file is real.
		var perr *fs.PathError
		if errors.As(serr, &perr) && !errors.Is(serr, fs.ErrNotExist) {
			return 0, nil, false, serr
		}
	}
	if gen == 0 {
		return 0, nil, false, nil
	}
	w.last = gen
	return gen, payload, true, nil
}
