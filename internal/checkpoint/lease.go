// Lease-based leader election over a shared state directory. One small JSON
// file is the whole protocol: whoever last wrote it (atomically, through the
// same writeDurably as generation files) holds the lease
// until TTL elapses after its RenewedAt stamp. Every acquisition — fresh or
// takeover of an expired lease — bumps a monotone *fencing epoch*; a holder
// renews with its own epoch and detects deposition the moment the file
// carries someone else's holder or a newer epoch. The epoch is what makes
// the election safe without synchronized clocks being exact: a paused or
// partitioned ex-leader that wakes up late cannot renew (epoch mismatch)
// and, with the lease wired into Store.SetFence, cannot journal either
// (DESIGN.md §3.13).
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// ErrLeaseHeld is returned by AcquireLease when a live (unexpired) lease
// names another holder. The accompanying LeaseInfo says who.
var ErrLeaseHeld = errors.New("checkpoint: lease held by another replica")

// ErrLeaseLost is returned by Renew, Check, and the fence once the lease
// file no longer carries this holder and fencing epoch — another replica
// took over, or the file vanished.
var ErrLeaseLost = errors.New("checkpoint: lease lost")

// LeaseInfo is the decoded lease file: who leads, where to reach them, the
// fencing epoch of their acquisition, and the renewal stamp the TTL counts
// from. Addr is advisory routing metadata (followers use it to redirect
// writes); Holder+Epoch are the correctness-bearing fields.
type LeaseInfo struct {
	Holder    string        `json:"holder"`
	Addr      string        `json:"addr,omitempty"`
	Epoch     uint64        `json:"epoch"`
	RenewedAt time.Time     `json:"renewed_at"`
	TTL       time.Duration `json:"ttl_ns"`
}

// Expired reports whether the lease has lapsed at the given instant.
func (li LeaseInfo) Expired(now time.Time) bool {
	return now.Sub(li.RenewedAt) > li.TTL
}

// Lease is a held lease: the handle the leader renews, checks, and
// eventually releases. Safe for concurrent use (the renew loop, the journal
// fence, and HTTP handlers all consult it).
type Lease struct {
	fs     FS
	path   string
	holder string
	addr   string
	ttl    time.Duration
	now    func() time.Time // test seam; time.Now in production

	mu    sync.Mutex
	epoch uint64
	lost  bool
}

// ReadLease decodes the lease file at path on fsys. A missing file returns
// (nil, nil) — no one leads. A file that exists but does not decode is
// reported as a zero-epoch, long-expired lease rather than an error: the
// only way to produce one is a crash mid-first-creation, and treating it as
// expired lets the next candidate take over instead of wedging the cluster.
func ReadLease(fsys FS, path string) (*LeaseInfo, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: reading lease: %w", err)
	}
	li := &LeaseInfo{}
	if err := json.Unmarshal(data, li); err != nil {
		return &LeaseInfo{Epoch: 0, TTL: 0}, nil
	}
	return li, nil
}

// AcquireLease attempts to become the leader recorded at path on fsys. On
// success it returns the held lease (fencing epoch = previous epoch + 1, or 1
// for a fresh file). When a live lease names another holder it returns
// (nil, info, ErrLeaseHeld) so the caller can follow that leader. An
// expired or corrupt lease is taken over atomically; losing a takeover race
// to another candidate reports ErrLeaseHeld with the winner's info.
func AcquireLease(fsys FS, path, holder, addr string, ttl time.Duration) (*Lease, *LeaseInfo, error) {
	if holder == "" {
		return nil, nil, fmt.Errorf("checkpoint: lease holder id must be non-empty")
	}
	if ttl <= 0 {
		return nil, nil, fmt.Errorf("checkpoint: lease TTL %v must be positive", ttl)
	}
	l := &Lease{fs: fsys, path: path, holder: holder, addr: addr, ttl: ttl, now: time.Now}
	cur, err := ReadLease(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	if cur == nil {
		// Fresh election: O_CREATE|O_EXCL is the atomic claim — exactly one
		// of N concurrent candidates wins the create.
		if err := l.create(); err != nil {
			if errors.Is(err, os.ErrExist) {
				// Lost the race; report the winner.
				won, rerr := ReadLease(fsys, path)
				if rerr != nil {
					return nil, nil, rerr
				}
				return nil, won, ErrLeaseHeld
			}
			return nil, nil, err
		}
		return l, nil, nil
	}
	if !cur.Expired(l.now()) {
		return nil, cur, ErrLeaseHeld
	}
	// Takeover of an expired (or corrupt, epoch-0) lease: write the next
	// fencing epoch over the file atomically, then verify we won — two
	// candidates can both rename, but only the last rename survives, and the
	// read-back tells each candidate whether it is the survivor.
	l.mu.Lock()
	l.epoch = cur.Epoch + 1
	l.mu.Unlock()
	if err := l.write(); err != nil {
		return nil, nil, err
	}
	if err := l.verify(); err != nil {
		won, rerr := ReadLease(fsys, path)
		if rerr != nil {
			return nil, nil, rerr
		}
		return nil, won, ErrLeaseHeld
	}
	return l, nil, nil
}

// Epoch returns the lease's fencing epoch.
func (l *Lease) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// record snapshots the lease's on-disk representation, stamped now.
func (l *Lease) record() LeaseInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LeaseInfo{
		Holder:    l.holder,
		Addr:      l.addr,
		Epoch:     l.epoch,
		RenewedAt: l.now(),
		TTL:       l.ttl,
	}
}

// create claims a fresh lease file with O_CREATE|O_EXCL — the atomic
// first-election primitive. Epoch 1 marks the first reign.
func (l *Lease) create() error {
	l.mu.Lock()
	l.epoch = 1
	l.mu.Unlock()
	return l.put(l.path, os.O_CREATE|os.O_EXCL)
}

// write replaces the lease file atomically (temp → fsync → rename →
// fsync-dir), used by takeover and renewal. Unlike create, it deliberately
// clobbers whatever is there; callers verify afterwards.
func (l *Lease) write() error {
	return l.put(fmt.Sprintf("%s.%s.tmp", l.path, l.holder), os.O_CREATE|os.O_TRUNC)
}

// put stamps the lease record now and writes it durably to the lease path by
// way of tmp (the lease path itself for the O_EXCL claim).
func (l *Lease) put(tmp string, flags int) error {
	payload, err := json.Marshal(l.record())
	if err != nil {
		return fmt.Errorf("checkpoint: encoding lease: %w", err)
	}
	return writeDurably(l.fs, tmp, l.path, flags, payload)
}

// verify re-reads the file and confirms this lease is still the one on
// disk; any mismatch marks the lease lost.
func (l *Lease) verify() error {
	cur, err := ReadLease(l.fs, l.path)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur == nil || cur.Holder != l.holder || cur.Epoch != l.epoch {
		l.lost = true
		return ErrLeaseLost
	}
	return nil
}

// Renew refreshes the lease's TTL window. It refuses — and marks the lease
// lost — if the file no longer carries this holder and epoch: a deposed
// leader must never resurrect its reign by overwriting the successor.
func (l *Lease) Renew() error {
	l.mu.Lock()
	if l.lost {
		l.mu.Unlock()
		return ErrLeaseLost
	}
	l.mu.Unlock()
	if err := l.verify(); err != nil {
		return err
	}
	if err := l.write(); err != nil {
		return err
	}
	return l.verify()
}

// Check reports whether the lease is currently held and live: the on-disk
// file carries this holder and epoch and the TTL window has not lapsed.
// This is the journal fence (Store.SetFence) — consulted before every
// durable save, so a deposed leader's writes die here.
func (l *Lease) Check() error {
	l.mu.Lock()
	if l.lost {
		l.mu.Unlock()
		return ErrLeaseLost
	}
	l.mu.Unlock()
	cur, err := ReadLease(l.fs, l.path)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur == nil || cur.Holder != l.holder || cur.Epoch != l.epoch {
		l.lost = true
		return ErrLeaseLost
	}
	if cur.Expired(l.now()) {
		// Our own unexpired-renewal lapsed — e.g. the process was paused
		// past the TTL. Treat as lost: a follower may already be taking
		// over, and fencing must err on the safe side.
		l.lost = true
		return ErrLeaseLost
	}
	return nil
}

// Lost reports whether the lease has been observed lost (sticky).
func (l *Lease) Lost() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lost
}

// Release hands the lease over: if the file still carries this holder and
// epoch, it is removed so the next candidate can elect immediately instead
// of waiting out the TTL. Releasing a lost lease is a no-op.
func (l *Lease) Release() error {
	if err := l.verify(); err != nil {
		if errors.Is(err, ErrLeaseLost) {
			return nil
		}
		return err
	}
	l.mu.Lock()
	l.lost = true
	l.mu.Unlock()
	if err := l.fs.Remove(l.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("checkpoint: releasing lease: %w", err)
	}
	return nil
}
