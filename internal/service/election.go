// High availability: replicas of the daemon share one state directory and
// elect a leader through a fencing-epoch lease (checkpoint.AcquireLease,
// DESIGN.md §3.13). The leader runs the usual Bootstrap/Run loop with its
// journal fenced on the lease; followers tail the leader's state journal
// (checkpoint.Watcher), keep a warm incumbent for reads, and redirect writes
// to the leader. When the lease lapses — crash, pause, partition — the first
// candidate to take it over reloads the journaled state and leads at the next
// fencing epoch, while the deposed leader's renew loop and journal fence both
// refuse, so it demotes instead of publishing (ErrDemoted).
package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"fragalloc/internal/checkpoint"
	"fragalloc/internal/scenario"
)

// Role is a replica's current place in the group.
type Role string

const (
	// RoleSingle is the non-HA daemon: no lease, no fence, writes accepted.
	RoleSingle Role = "single"
	// RoleCandidate is an HA replica between reigns: not serving leadership,
	// about to run for the lease (or to resume following).
	RoleCandidate Role = "candidate"
	// RoleFollower tails the leader's journal and serves reads from the
	// warm incumbent; writes are redirected to the leader.
	RoleFollower Role = "follower"
	// RoleLeader holds the lease: it solves, adopts, and journals.
	RoleLeader Role = "leader"
)

// ErrDemoted is returned by RunHA when the replica lost its lease while
// leading: another replica holds a higher fencing epoch, this one's journal
// writes are fenced off, and the process should restart into candidacy
// (cmd/allocd exits with its demotion code so a supervisor does exactly that).
var ErrDemoted = errors.New("service: leadership lost; demoted")

// NotLeaderError rejects a write on a replica that does not hold the lease.
// Leader carries the current leader's advertised address when known, so HTTP
// handlers can redirect instead of failing.
type NotLeaderError struct {
	Leader string
}

func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "service: not the leader (no leader known)"
	}
	return "service: not the leader; updates go to " + e.Leader
}

// HAConfig makes the daemon one replica of a highly available group. All
// replicas must share Config.StateDir (the journal is the replication
// channel) and run the same workload.
type HAConfig struct {
	// NodeID names this replica in the lease file; required, unique per
	// replica.
	NodeID string
	// Addr is this replica's advertised base URL (e.g. "http://host:port"),
	// recorded in the lease while it leads so followers can redirect writes.
	Addr string
	// LeaseTTL is how long the lease survives without renewal (default 2s).
	// A leader that cannot renew within the TTL is deposed; failover takes
	// at most 2×TTL from leader death to a standby serving. The leader
	// renews every LeaseTTL/3 and followers poll the journal every
	// LeaseTTL/4.
	LeaseTTL time.Duration
	// NoPromote keeps this replica a pure standby: it tails and serves
	// reads but never runs for the lease.
	NoPromote bool
}

// withDefaults validates the HA config against the rest of the service
// config and fills the default TTL.
func (ha HAConfig) withDefaults(cfg *Config) (HAConfig, error) {
	if ha.NodeID == "" {
		return ha, fmt.Errorf("service: HA.NodeID is required")
	}
	if cfg.StateDir == "" {
		return ha, fmt.Errorf("service: HA requires a StateDir (the shared journal is the replication channel)")
	}
	if ha.LeaseTTL <= 0 {
		ha.LeaseTTL = 2 * time.Second
	}
	return ha, nil
}

// renewEvery is the leader's renewal period: two renewals may fail or run
// late before the TTL lapses.
func (ha HAConfig) renewEvery() time.Duration { return ha.LeaseTTL / 3 }

// tailEvery is the follower's journal and lease poll period.
func (ha HAConfig) tailEvery() time.Duration { return ha.LeaseTTL / 4 }

// leasePath is the group's election file, a sibling of the state journal.
func (s *Service) leasePath() string {
	return filepath.Join(s.cfg.StateDir, "leader.lease")
}

// Role reports this replica's current role.
func (s *Service) Role() Role {
	v, _ := s.snapshot()
	return v.Role
}

// RunHA is the HA replica's main loop, replacing the Bootstrap+Run pair of
// the single-node daemon: run for the lease, lead while holding it, follow
// while someone else does, and return to candidacy when the leader's lease
// lapses. It returns nil when ctx is canceled (graceful shutdown, with the
// lease handed over), ErrDemoted when leadership was lost to a higher
// fencing epoch, or the bootstrap error when the first solve fails.
func (s *Service) RunHA(ctx context.Context) error {
	ha := s.cfg.HA
	if ha == nil {
		return fmt.Errorf("service: RunHA requires Config.HA")
	}
	for ctx.Err() == nil {
		if ha.NoPromote {
			s.follow(ctx, nil)
			continue
		}
		lease, held, err := checkpoint.AcquireLease(s.cfg.FS, s.leasePath(), ha.NodeID, ha.Addr, ha.LeaseTTL)
		switch {
		case err == nil:
			if lerr := s.lead(ctx, lease); lerr != nil {
				return lerr
			}
		case errors.Is(err, checkpoint.ErrLeaseHeld):
			s.follow(ctx, held)
		default:
			s.logf("service: lease acquisition: %v", err)
			select {
			case <-ctx.Done():
			case <-time.After(ha.renewEvery()):
			}
		}
	}
	return nil
}

// lead runs one reign: reload the journaled state (a promoted follower must
// serve the deposed leader's last adoption, not its own possibly stale
// tail), fence the journal on the lease, renew in the background, and run
// the normal Bootstrap/Run loop until ctx is canceled or the lease is lost.
// A lost lease cancels the reign's context, which aborts any in-flight solve
// through core.Options.Canceled — a deposed leader never publishes.
func (s *Service) lead(ctx context.Context, lease *checkpoint.Lease) error {
	ha := s.cfg.HA
	if err := s.reloadState(); err != nil {
		s.releaseLease(lease)
		return err
	}
	s.st.SetFence(lease.Check)
	s.setRole(RoleLeader, ha.Addr, lease)
	s.logf("service: %s leading at fencing epoch %d (ttl %v)", ha.NodeID, lease.Epoch(), ha.LeaseTTL)

	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var renew sync.WaitGroup
	renew.Add(1)
	go func() {
		defer renew.Done()
		t := time.NewTicker(ha.renewEvery())
		defer t.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-t.C:
				if err := lease.Renew(); err != nil {
					s.logf("service: lease renewal failed: %v", err)
					cancel()
					return
				}
			}
		}
	}()

	bootErr := s.Bootstrap(leaseCtx)
	if bootErr == nil {
		s.Run(leaseCtx)
	}
	cancel()
	renew.Wait()

	demoted := lease.Lost()
	s.setRole(RoleCandidate, "", nil)

	if demoted {
		// The fence stays installed: the lost lease is sticky, so any late
		// journal write on this deposed replica fails permanently. A future
		// reign installs a fresh fence over it.
		return ErrDemoted
	}
	s.st.SetFence(nil)
	if ctx.Err() != nil {
		// Graceful shutdown: hand the lease over so a standby elects
		// immediately instead of waiting out the TTL.
		bootErr = nil
	}
	// Otherwise Bootstrap failed on a live context — a hard solver error the
	// operator must see. Release so a healthier replica can try.
	s.releaseLease(lease)
	return bootErr
}

// setRole moves this replica to role, knowing the leader at leaderAddr ("" =
// none known). lease is the held lease for RoleLeader and nil otherwise: the
// fencing epoch and the publish-time lease check exist exactly while leading.
func (s *Service) setRole(role Role, leaderAddr string, lease *checkpoint.Lease) {
	var epoch uint64
	var check func() error
	if lease != nil {
		epoch, check = lease.Epoch(), lease.Check
	}
	s.locked(func(st *state) { st.setRole(role, leaderAddr, epoch); s.leaseCheck = check })
}

func (s *Service) releaseLease(lease *checkpoint.Lease) {
	if err := lease.Release(); err != nil {
		s.logf("service: lease release: %v", err)
	}
}

// follow tails the leader's state journal, adopting each new verified
// generation as the warm incumbent, until ctx is canceled or the leader's
// lease lapses (then it returns so RunHA can run for the lease; with
// NoPromote it keeps following through leaderless gaps).
func (s *Service) follow(ctx context.Context, leader *checkpoint.LeaseInfo) {
	ha := s.cfg.HA
	addr := ""
	if leader != nil {
		addr = leader.Addr
	}
	s.setRole(RoleFollower, addr, nil)
	s.logf("service: %s following (leader %q)", ha.NodeID, addr)

	w := checkpoint.NewWatcher(s.cfg.FS, s.st.Dir())
	t := time.NewTicker(ha.tailEvery())
	defer t.Stop()
	for {
		gen, payload, ok, err := w.Poll()
		switch {
		case err != nil:
			s.logf("service: journal tail: %v", err)
		case ok:
			if aerr := s.adoptJournal(payload, gen); aerr != nil {
				// A generation that decodes but does not validate is a
				// misconfiguration (wrong workload, wrong dir) — log loudly
				// and keep the previous warm state; never serve it.
				s.logf("service: journal tail generation %d rejected: %v", gen, aerr)
			} else {
				s.logf("service: tailed journal generation %d", gen)
			}
		}

		li, lerr := checkpoint.ReadLease(s.cfg.FS, s.leasePath())
		switch {
		case lerr != nil:
			s.logf("service: reading lease: %v", lerr)
		case li != nil && !li.Expired(time.Now()):
			s.setRole(RoleFollower, li.Addr, nil)
		case ha.NoPromote:
			s.setRole(RoleFollower, "", nil)
		default:
			s.setRole(RoleCandidate, "", nil)
			return
		}

		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// reloadState adopts the newest good state-journal generation, if any — at
// boot, and again as the promotion step: whatever the previous leader last
// journaled becomes this replica's desired state and incumbent before it
// starts leading.
func (s *Service) reloadState() error {
	payload, err := s.st.LoadRaw()
	if err != nil {
		return fmt.Errorf("service: state journal: %w", err)
	}
	if payload == nil {
		return nil
	}
	if err := s.adoptJournal(payload, 0); err != nil {
		return err
	}
	if v, _ := s.snapshot(); v.Inc != nil {
		s.logf("service: restored incumbent of epoch %d (desired epoch %d) from %s", v.Inc.Epoch, v.Epoch, s.cfg.StateDir)
	}
	return nil
}

// adoptJournal decodes, validates, and installs one state-journal payload
// (gen > 0: tailed by a follower at that generation). The scenario reduction
// is derived state, rebuilt deterministically from the frame's full set.
func (s *Service) adoptJournal(payload []byte, gen uint64) error {
	ps, err := decodePersisted(s.cfg.Workload, payload)
	if err != nil {
		return err
	}
	var red *scenario.Reduction
	if s.cfg.ReduceTo > 0 {
		if red, err = s.cluster(ps.Scenarios); err != nil {
			return err
		}
	}
	now := time.Now()
	s.locked(func(st *state) { st.install(ps, red, gen, now) })
	return nil
}

// publishGate is consulted between a successful solve and its adoption: a
// replica may only publish while it is the write authority. The leader
// re-verifies its lease at this instant — adopting on a deposed replica
// would fork the group's history even though the journal fence already
// protects the disk.
func (s *Service) publishGate() (err error) {
	var check func() error
	s.locked(func(st *state) { check, err = s.leaseCheck, st.writeAuthority() })
	if err != nil {
		return err
	}
	// setRole hands out the lease check exactly while leading; a single-node
	// daemon has none and is always the write authority.
	if check != nil {
		if cerr := check(); cerr != nil {
			return fmt.Errorf("service: refusing to adopt: %w", cerr)
		}
	}
	return nil
}
