package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fragalloc/internal/faultinject"
	"fragalloc/internal/mip"
	"fragalloc/internal/simplex"
)

// TestTokenBucket pins the bucket's arithmetic on the caller's clock: the
// burst is admitted immediately, refusals report the exact time to the next
// token, refill accrues at the configured rate, and idle time never grows
// the bucket past its depth.
func TestTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTokenBucket(2, 3, now)
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("burst take %d refused", i)
		}
	}
	ok, ra := b.take(now)
	if ok {
		t.Fatal("4th take admitted past the burst depth")
	}
	if ra != 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 500ms (one token at 2/s)", ra)
	}
	now = now.Add(500 * time.Millisecond)
	if ok, _ := b.take(now); !ok {
		t.Fatal("take refused after exactly one token accrued")
	}
	if ok, _ := b.take(now); ok {
		t.Fatal("take admitted from an empty bucket")
	}
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("post-idle take %d refused; burst cap was not restored", i)
		}
	}
	if ok, _ := b.take(now); ok {
		t.Fatal("idle time grew the bucket past its burst depth")
	}
}

// TestServiceAdmissionRate covers the rate gate end to end through Apply: a
// bucket with Burst 2 and a negligible refill rate admits exactly the burst
// and then refuses with a rate-limit OverloadedError whose retry hint is in
// the future.
func TestServiceAdmissionRate(t *testing.T) {
	cfg := serviceConfig(t)
	cfg.Admission = &AdmissionConfig{Rate: 0.001, Burst: 2}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Apply(driftUpdate()); err != nil {
			t.Fatalf("burst update %d refused: %v", i, err)
		}
	}
	var overloaded *OverloadedError
	_, err = s.Apply(driftUpdate())
	if !errors.As(err, &overloaded) {
		t.Fatalf("post-burst Apply = %v, want OverloadedError", err)
	}
	if overloaded.Reason != "rate" || overloaded.RetryAfter <= 0 {
		t.Fatalf("post-burst refusal = %+v, want a rate refusal with a positive retry hint", overloaded)
	}
}

// TestServiceAdmissionBurst is the update-burst acceptance test: with the
// solver broken, 100 updates hit the daemon. The pending-queue bound admits
// exactly MaxPending of them and refuses the rest cheaply — over HTTP as 429
// with a Retry-After header — while the solve loop keeps running. Once the
// solver heals, single-flight coalescing drains the whole backlog with at
// most two solves and one adoption, and fresh updates are admitted again.
func TestServiceAdmissionBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("solver lifecycle test")
	}
	fault := &switchFault{inner: faultinject.Always()}
	cfg := serviceConfig(t)
	cfg.MIP = mip.Options{LP: simplex.Options{Fault: fault}}
	cfg.Admission = &AdmissionConfig{MaxPending: 8}
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
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Break every solve, then slam the daemon.
	fault.on.Store(true)
	accepted, refused := 0, 0
	for i := 0; i < 100; i++ {
		_, err := s.Apply(driftUpdate())
		var overloaded *OverloadedError
		switch {
		case err == nil:
			accepted++
		case errors.As(err, &overloaded):
			refused++
			if overloaded.Reason != "queue" {
				t.Fatalf("refusal %d reason = %q, want the queue bound", i, overloaded.Reason)
			}
			if overloaded.RetryAfter <= 0 {
				t.Fatalf("refusal %d carries no retry hint", i)
			}
		default:
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if accepted != 8 || refused != 92 {
		t.Fatalf("burst admitted %d and refused %d of 100 updates, want the MaxPending bound of 8 admitted", accepted, refused)
	}

	// Over HTTP the same refusal is 429 with a Retry-After hint.
	body, err := json.Marshal(driftUpdate())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded POST /v1/update = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	// The solve loop is alive (not starved by the burst): attempts keep
	// accumulating against the broken solver.
	before := s.Status().Attempts
	waitCond(t, 60*time.Second, "the solve loop to keep retrying", func() bool {
		return s.Status().Attempts > before
	})

	// Heal: the backlog of 8 accepted epochs coalesces into at most two
	// further solves (one possibly already in flight when the heal lands)
	// and exactly one adoption.
	attemptsBroken := s.Status().Attempts
	fault.on.Store(false)
	waitCond(t, 120*time.Second, "the backlog to drain", func() bool {
		st := s.Status()
		return st.IncumbentEpoch == st.Epoch
	})
	st := s.Status()
	if st.IncumbentEpoch != 8 {
		t.Fatalf("drained to incumbent epoch %d, want 8", st.IncumbentEpoch)
	}
	if st.Adoptions != 2 {
		t.Fatalf("draining the backlog took %d adoptions in total, want 2 (boot + one coalesced)", st.Adoptions)
	}
	if extra := st.Attempts - attemptsBroken; extra > 2 {
		t.Fatalf("draining 8 pending updates took %d solves, want coalescing into at most 2", extra)
	}

	// With the queue drained, fresh updates are admitted again.
	if _, err := s.Apply(driftUpdate()); err != nil {
		t.Fatalf("post-drain update refused: %v", err)
	}
}

// TestServiceAdmissionConcurrent pins that the pending bound holds under
// concurrent ingest: the gate and the epoch bump it guards are one
// transition, so however 32 simultaneous Apply calls interleave, exactly
// MaxPending of them are admitted. (With the gate checked in one critical
// section and the epoch bumped in the next, two callers could both pass the
// check against the last free slot.) No solve loop runs, so nothing drains
// the queue.
func TestServiceAdmissionConcurrent(t *testing.T) {
	const (
		trials     = 2000
		callers    = 32
		maxPending = 4
	)
	cfg := serviceConfig(t)
	cfg.Admission = &AdmissionConfig{MaxPending: maxPending}
	u := driftUpdate()
	for trial := 0; trial < trials; trial++ {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var accepted atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, err := s.Apply(u)
				var overloaded *OverloadedError
				switch {
				case err == nil:
					accepted.Add(1)
				case !errors.As(err, &overloaded):
					t.Errorf("trial %d: %v", trial, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := accepted.Load(); got != maxPending {
			t.Fatalf("trial %d: %d concurrent updates admitted %d, want exactly MaxPending = %d", trial, callers, got, maxPending)
		}
	}
}
