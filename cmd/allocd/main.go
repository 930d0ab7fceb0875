// Command allocd is the crash-tolerant allocation daemon: it serves the
// incumbent fragment allocation over HTTP/JSON, ingests workload-drift
// updates, and re-optimizes incrementally, warm-starting each solve from the
// incumbent and emitting a migration diff per adoption (DESIGN.md §3.11).
//
// Usage:
//
//	allocd -workload tpcds -k 4 -state /var/lib/allocd -addr :8080
//	allocd -in workload.json -k 8 -chunks 4+4 -scenarios 10 -addr 127.0.0.1:8080
//	allocd -workload tpcds -k 4 -scenarios 200 -reduce 8 -addr :8080
//
// With -reduce R the daemon clusters its scenario set into R weighted
// representatives and solves over those: observed scenarios fold into their
// nearest cluster between solves, and a full re-clustering runs only once the
// drift folded in exceeds a quarter of the set the clustering was built from
// (DESIGN.md §3.12). The clustering recipe — that threshold and k-medoids
// seed 1 — is fixed, because a follower re-clusters every frame it tails and
// must land on the leader's reduction. The /v1/status response reports the
// reduction's size, deviation bound, drift, and re-clustering count.
//
// Endpoints:
//
//	GET  /v1/allocation   the served incumbent + staleness tags; never fails
//	                      once bootstrapped, even while re-optimization fails
//	POST /v1/update       ingest a drift update (?wait=1 blocks for the solve
//	                      and returns the migration diff)
//	GET  /v1/diff         migration plan of the latest adoption
//	GET  /v1/status       epochs, outcome, failure counters, role
//	GET  /healthz         liveness (always 200 while the process runs)
//	GET  /readyz          readiness (200 once this replica can serve reads)
//
// With -state DIR the daemon journals its desired state and incumbent
// durably: after a crash (even kill -9 mid-solve) it boots straight into the
// last served allocation and resumes the interrupted re-optimization from
// the solve journal. Without -state it is memory-only.
//
// High availability (-role auto, DESIGN.md §3.13): replicas sharing one
// -state directory elect a leader through a fencing-epoch lease. The leader
// solves and journals; followers tail the journal, serve reads tagged with
// their role and staleness, and redirect POST /v1/update to the leader
// (307). When the leader dies, a standby takes the lease over within 2×
// -lease-ttl and serves the journaled incumbent; the deposed leader's
// journal writes are fenced off and it exits with code 4 so a supervisor
// restarts it into candidacy. -role standby keeps a replica a pure
// follower that never runs for the lease.
//
//	allocd -workload tpcds -k 4 -state /shared/allocd -role auto \
//	       -node-id a -addr :8080 -advertise http://a.local:8080
//
// Admission control (-admit-rate/-admit-burst/-max-pending) bounds update
// bursts: refused updates get 429 with a Retry-After hint instead of
// queueing without bound, while single-flight coalescing keeps N pending
// updates at ≤1 solve.
//
// A first SIGINT/SIGTERM drains the HTTP server and stops the solve loop
// (a leader hands its lease over so a standby elects immediately); a
// second one exits immediately with code 1.
//
// Exit codes (README.md has the table the five commands share):
//
//	0  graceful shutdown (signal, server closed)
//	1  a bad command line, an internal error, or a second signal
//	3  bootstrap found the workload infeasible — nothing to serve
//	4  demoted: another replica took the lease; restart to rejoin as candidate
package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"fragalloc"
	"fragalloc/internal/cli"
	"fragalloc/internal/service"
)

func main() {
	fs := cli.NewFlagSet("allocd")
	loadWorkload := cli.Source(fs)
	inSample := cli.Draw(fs)
	solver := cli.NewSolver(fs)
	solveTimeout := fs.Duration("solve-timeout", 0, "wall-clock bound per re-optimization attempt (0 = none)")
	state := fs.String("state", "", "durable state directory (empty = memory-only, no crash tolerance)")
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
	role := fs.String("role", "single", "replica role: single (no HA), auto (elect through the shared-state lease), standby (follow, never lead)")
	nodeID := fs.String("node-id", "", "replica name in the lease file (default hostname-pid)")
	advertise := fs.String("advertise", "", "advertised base URL for write redirection (default http://<addr>)")
	leaseTTL := fs.Duration("lease-ttl", 2*time.Second, "leader lease TTL; failover completes within 2×TTL")
	admitRate := fs.Float64("admit-rate", 0, "sustained updates/s admitted (0 = unlimited)")
	admitBurst := fs.Int("admit-burst", 0, "update burst depth before -admit-rate applies (0 = derived)")
	maxPending := fs.Int("max-pending", 0, "max updates pending behind the incumbent before 429 (0 = unbounded)")
	fs.Parse(os.Args[1:])
	switch {
	case *solveTimeout < 0:
		cli.Fail("allocd", fmt.Errorf("-solve-timeout: %v is negative (0 = none)", *solveTimeout))
	case *leaseTTL < 0:
		cli.Fail("allocd", fmt.Errorf("-lease-ttl: %v is negative", *leaseTTL))
	case *maxPending < 0:
		cli.Fail("allocd", fmt.Errorf("-max-pending: %d is negative (0 = unbounded)", *maxPending))
	case !(*admitRate >= 0) || math.IsInf(*admitRate, 1):
		cli.Fail("allocd", fmt.Errorf("-admit-rate: %v is not a finite rate >= 0 (0 = unlimited)", *admitRate))
	}

	ctx, cancel := cli.Graceful("allocd")
	defer cancel()

	w, err := loadWorkload()
	if err != nil {
		cli.Fail("allocd", err)
	}
	cfg := service.Config{
		Workload:     w,
		Scenarios:    inSample(w),
		K:            solver.K,
		Chunks:       solver.Options.Chunks,
		FixedQueries: solver.Options.FixedQueries,
		Parallelism:  solver.Options.Parallelism,
		MIP:          solver.Options.MIP,
		SolveTimeout: *solveTimeout,
		StateDir:     *state,
		ReduceTo:     solver.Reduce,
		Logf:         solver.Options.Logf,
	}
	switch *role {
	case "single":
	case "auto", "standby":
		id := *nodeID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "allocd"
			}
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		adv := *advertise
		if adv == "" {
			adv = advertiseFromAddr(*addr)
		}
		cfg.HA = &service.HAConfig{
			NodeID:    id,
			Addr:      adv,
			LeaseTTL:  *leaseTTL,
			NoPromote: *role == "standby",
		}
	default:
		cli.Fail("allocd", fmt.Errorf("-role %q: want single, auto, or standby", *role))
	}
	if *admitRate > 0 || *maxPending > 0 {
		cfg.Admission = &service.AdmissionConfig{Rate: *admitRate, Burst: *admitBurst, MaxPending: *maxPending}
	}
	if cfg.Logf == nil {
		// Quiet mode still reports service-level transitions — role changes,
		// adoptions, failed journal writes — just not solver progress.
		cfg.Logf = func(format string, args ...any) {
			if !solverProgress(format) {
				cli.Logf(format, args...)
			}
		}
	}

	svc, err := service.New(cfg)
	if err != nil {
		cli.Fail("allocd", err)
	}

	// The timeouts are the slow-loris guard: a client must send its headers
	// within 5s and its body within a minute, and idle keep-alive sockets
	// are reaped. WriteTimeout must outlive the longest ?wait=1 update — it
	// spans the re-optimization the handler blocks on — hence minutes, not
	// seconds.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      15 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		<-ctx.Done()
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "allocd: shutdown: %v\n", err)
		}
	}()

	if cfg.HA != nil {
		// HA replica: serve immediately — a follower answers reads (and
		// /readyz says when) long before it ever bootstraps a solve — and
		// run the election loop in the foreground.
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.ListenAndServe() }()
		cli.Logf("allocd: %s serving on %s (role %s, lease ttl %v)", cfg.HA.NodeID, *addr, *role, *leaseTTL)
		switch err := svc.RunHA(ctx); {
		case errors.Is(err, service.ErrDemoted):
			fmt.Fprintf(os.Stderr, "allocd: %v\n", err)
			os.Exit(cli.ExitDemoted)
		case errors.Is(err, fragalloc.ErrInfeasible):
			fmt.Fprintf(os.Stderr, "allocd: %v\n", err)
			os.Exit(cli.ExitInfeasible)
		case err != nil:
			cli.Fail("allocd", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			cli.Fail("allocd", err)
		}
		os.Exit(cli.ExitOK)
	}

	cli.Logf("allocd: bootstrapping the first incumbent (workload %d fragments, %d queries, K=%d)",
		len(w.Fragments), len(w.Queries), solver.K)
	if err := svc.Bootstrap(ctx); err != nil {
		if errors.Is(err, fragalloc.ErrInfeasible) {
			fmt.Fprintf(os.Stderr, "allocd: %v\n", err)
			os.Exit(cli.ExitInfeasible)
		}
		cli.Fail("allocd", err)
	}
	go svc.Run(ctx)

	cli.Logf("allocd: serving on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		cli.Fail("allocd", err)
	}
	os.Exit(cli.ExitOK)
}

// solverProgress reports whether a log format is one of the solver's
// progress lines, which the service passes through from core and mip under
// their own prefixes, rather than a line of the service or of allocd itself.
func solverProgress(format string) bool {
	return strings.HasPrefix(format, "core: ") || strings.HasPrefix(format, "mip: ")
}

// advertiseFromAddr derives a redirect target from the listen address: a
// bare ":8080" advertises loopback, anything with a host advertises itself.
func advertiseFromAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}
