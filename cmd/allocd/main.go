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
// Exit codes:
//
//	0  graceful shutdown (signal, server closed)
//	3  bootstrap found the workload infeasible — nothing to serve
//	4  demoted: another replica took the lease; restart to rejoin as candidate
//	1  internal error, or a second signal forced an immediate exit
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"fragalloc"
	"fragalloc/internal/mip"
	"fragalloc/internal/scenario"
	"fragalloc/internal/service"
	"fragalloc/internal/shutdown"
)

// Exit codes; see the package doc.
const (
	exitOK         = 0
	exitInternal   = 1
	exitInfeasible = 3
	exitDemoted    = 4
)

func main() {
	workload := flag.String("workload", "", "built-in workload: tpcds or accounting")
	in := flag.String("in", "", "workload JSON file (alternative to -workload)")
	k := flag.Int("k", 4, "initial number of replica nodes K")
	chunks := flag.String("chunks", "", "decomposition spec, e.g. 4+4 (default: exact)")
	fixed := flag.Int("fixed", 0, "partial clustering: number of fixed queries F")
	scenarios := flag.Int("scenarios", 1, "number of in-sample scenarios S (1 = deterministic)")
	p := flag.Float64("p", fragalloc.DefaultPresence, "scenario presence probability")
	seed := flag.Int64("seed", 1, "scenario sampling seed")
	reduce := flag.Int("reduce", 0, "solve over this many clustered scenario representatives instead of the full set (0 = off)")
	budget := flag.Duration("budget", 30*time.Second, "MIP time budget per subproblem")
	solveTimeout := flag.Duration("solve-timeout", 0, "wall-clock bound per re-optimization attempt (0 = none)")
	parallel := flag.Int("parallel", 0, "concurrent subproblem solves (0 = GOMAXPROCS, 1 = serial)")
	state := flag.String("state", "", "durable state directory (empty = memory-only, no crash tolerance)")
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	role := flag.String("role", "single", "replica role: single (no HA), auto (elect through the shared-state lease), standby (follow, never lead)")
	nodeID := flag.String("node-id", "", "replica name in the lease file (default hostname-pid)")
	advertise := flag.String("advertise", "", "advertised base URL for write redirection (default http://<addr>)")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Second, "leader lease TTL; failover completes within 2×TTL")
	admitRate := flag.Float64("admit-rate", 0, "sustained updates/s admitted (0 = unlimited)")
	admitBurst := flag.Int("admit-burst", 0, "update burst depth before -admit-rate applies (0 = derived)")
	maxPending := flag.Int("max-pending", 0, "max updates pending behind the incumbent before 429 (0 = unbounded)")
	verbose := flag.Bool("v", false, "progress logging to stderr")
	flag.Parse()
	if err := scenario.CheckPresence(*p); err != nil {
		fail(fmt.Errorf("-p: %w", err))
	}
	if err := scenario.CheckCount(*scenarios); err != nil {
		fail(fmt.Errorf("-scenarios: %w", err))
	}
	switch {
	case *budget < 0:
		fail(fmt.Errorf("-budget: %v is negative (0 = none)", *budget))
	case *solveTimeout < 0:
		fail(fmt.Errorf("-solve-timeout: %v is negative (0 = none)", *solveTimeout))
	case *leaseTTL < 0:
		fail(fmt.Errorf("-lease-ttl: %v is negative", *leaseTTL))
	case *parallel < 0:
		fail(fmt.Errorf("-parallel: %d is negative (0 = GOMAXPROCS)", *parallel))
	case *maxPending < 0:
		fail(fmt.Errorf("-max-pending: %d is negative (0 = unbounded)", *maxPending))
	case !(*admitRate >= 0) || math.IsInf(*admitRate, 1):
		fail(fmt.Errorf("-admit-rate: %v is not a finite rate >= 0 (0 = unlimited)", *admitRate))
	}

	ctx, cancel := shutdown.Graceful("allocd", exitInternal)
	defer cancel()

	w, err := fragalloc.NamedWorkload(*workload, *in)
	if err != nil {
		fail(err)
	}
	cfg := service.Config{
		Workload:     w,
		K:            *k,
		FixedQueries: *fixed,
		Parallelism:  *parallel,
		MIP:          mip.Options{TimeLimit: *budget, MaxStallNodes: 300},
		SolveTimeout: *solveTimeout,
		StateDir:     *state,
		ReduceTo:     *reduce,
	}
	if *scenarios > 1 {
		cfg.Scenarios = fragalloc.InSampleScenarios(w, *scenarios, *p, *seed)
	}
	if *chunks != "" {
		spec, err := fragalloc.ParseChunks(*chunks)
		if err != nil {
			fail(err)
		}
		cfg.Chunks = spec
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
		fail(fmt.Errorf("-role %q: want single, auto, or standby", *role))
	}
	if *admitRate > 0 || *maxPending > 0 {
		cfg.Admission = &service.AdmissionConfig{Rate: *admitRate, Burst: *admitBurst, MaxPending: *maxPending}
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	cfg.Logf = logf
	if !*verbose {
		// Quiet mode still reports service-level transitions — role changes,
		// adoptions, failed journal writes — just not solver progress.
		cfg.Logf = func(format string, args ...any) {
			if !solverProgress(format) {
				logf(format, args...)
			}
		}
	}

	svc, err := service.New(cfg)
	if err != nil {
		fail(err)
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
		logf("allocd: %s serving on %s (role %s, lease ttl %v)", cfg.HA.NodeID, *addr, *role, *leaseTTL)
		switch err := svc.RunHA(ctx); {
		case errors.Is(err, service.ErrDemoted):
			fmt.Fprintf(os.Stderr, "allocd: %v\n", err)
			os.Exit(exitDemoted)
		case errors.Is(err, fragalloc.ErrInfeasible):
			fmt.Fprintf(os.Stderr, "allocd: %v\n", err)
			os.Exit(exitInfeasible)
		case err != nil:
			fail(err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
		os.Exit(exitOK)
	}

	logf("allocd: bootstrapping the first incumbent (workload %d fragments, %d queries, K=%d)",
		len(w.Fragments), len(w.Queries), *k)
	if err := svc.Bootstrap(ctx); err != nil {
		if errors.Is(err, fragalloc.ErrInfeasible) {
			fmt.Fprintf(os.Stderr, "allocd: %v\n", err)
			os.Exit(exitInfeasible)
		}
		fail(err)
	}
	go svc.Run(ctx)

	logf("allocd: serving on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	os.Exit(exitOK)
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

func fail(err error) {
	fmt.Fprintf(os.Stderr, "allocd: %v\n", err)
	os.Exit(exitInternal)
}
