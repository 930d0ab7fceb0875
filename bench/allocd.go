package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"fragalloc/internal/model"
	"fragalloc/internal/service"
)

// readInterval paces the reader beside the drift writer: 20 reads a second.
const readInterval = 50 * time.Millisecond

// daemon is an in-process allocd behind its real HTTP handler on a loopback
// listener, with its state directory on real disk.
type daemon struct {
	cfg     service.Config
	svc     *service.Service
	srv     *httptest.Server
	client  *http.Client
	cancel  context.CancelFunc
	runDone chan struct{}

	updates []service.Update
	bodies  [][]byte // the updates as the JSON a client would post
}

// bootDaemon is the allocd share of set-up: generate the drift stream, then
// New + Bootstrap + Run and a listening server.
func bootDaemon(sp spec, in *inputs, seed int64, ops int, tr *tracer, parent int) (*daemon, error) {
	cfg, err := serviceConfig(sp, in, filepath.Join(in.dir, "state"))
	if err != nil {
		return nil, err
	}
	d := &daemon{cfg: cfg}
	d.updates = service.GenerateDrift(in.w, in.observed, service.DriftConfig{
		Updates: ops, Seed: seed, ObserveProb: sp.observeProb,
	})
	for _, u := range d.updates {
		body, err := json.Marshal(u)
		if err != nil {
			return nil, err
		}
		d.bodies = append(d.bodies, body)
	}
	tr.call(0, "service.new", parent, func() { d.svc, err = service.New(cfg) })
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	tr.call(0, "service.bootstrap", parent, func() { err = d.svc.Bootstrap(ctx) })
	if err != nil {
		cancel()
		return nil, err
	}
	d.runDone = make(chan struct{})
	go func() {
		defer close(d.runDone)
		d.svc.Run(ctx)
	}()
	d.srv = httptest.NewUnstartedServer(d.svc.Handler())
	d.srv.Config.ReadHeaderTimeout = 5 * time.Second
	d.srv.Start()
	d.client = d.srv.Client()
	d.client.Timeout = 2 * time.Minute
	return d, nil
}

// stop shuts the server and the re-optimization loop down and waits for
// both. It is safe to call twice.
func (d *daemon) stop() {
	if d.srv != nil {
		d.srv.Close()
		d.srv = nil
	}
	if d.cancel != nil {
		d.cancel()
		d.cancel = nil
	}
	if d.runDone != nil {
		<-d.runDone
		d.runDone = nil
	}
}

// updateReply mirrors the POST /v1/update response body.
type updateReply struct {
	Epoch     uint64        `json:"epoch"`
	Adopted   bool          `json:"adopted"`
	Diff      *service.Diff `json:"diff"`
	LastError string        `json:"last_error"`
}

// post sends one update and decodes the reply; any status other than want
// is an error.
func (d *daemon) post(body []byte, wait bool, want int) (*updateReply, error) {
	url := d.srv.URL + "/v1/update"
	if wait {
		url += "?wait=1"
	}
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST /v1/update: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var reply updateReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return nil, fmt.Errorf("POST /v1/update: %w", err)
	}
	return &reply, nil
}

// readLoop paces GET /v1/allocation until ctx ends and returns the latencies
// of the reads that succeeded plus the number that did not.
func (d *daemon) readLoop(ctx context.Context) (lat []time.Duration, failed int) {
	tick := time.NewTicker(readInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return lat, failed
		case <-tick.C:
		}
		start := time.Now()
		resp, err := d.client.Get(d.srv.URL + "/v1/allocation")
		if err != nil {
			failed++
			continue
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			failed++
			continue
		}
		lat = append(lat, time.Since(start))
	}
}

// mirror applies an update to the checker's copy of the desired scenario
// set, exactly as the daemon documents it: deltas floor at zero, observed
// scenarios append.
func mirror(ss *model.ScenarioSet, u service.Update) {
	for _, d := range u.FreqDeltas {
		f := &ss.Frequencies[d.Scenario][d.Query]
		*f = max(0, *f+d.Delta)
	}
	for _, obs := range u.Observe {
		ss.Frequencies = append(ss.Frequencies, append([]float64(nil), obs...))
	}
}

// driftRun is what the closed-loop drift workload measured.
type driftRun struct {
	adopt     []time.Duration // update posted → adoption returned, successful ops only
	solve     []time.Duration // Incumbent.SolveTime of each adoption
	rf        []float64       // W/V of each adopted incumbent
	migration []float64       // Diff.MigrationBytes of each adoption
	reads     []time.Duration
	failures  []string
	attempted int
	rejected  int // posts that came back with an error or a non-2xx status
	last      *service.Incumbent
	desired   *model.ScenarioSet
}

// runDrift replays the drift stream closed-loop: the next update is posted
// only after the previous adoption returned, because each monitoring tick
// waits for its plan.
func runDrift(in *inputs, tr *tracer) *driftRun {
	d := in.daemon
	run := &driftRun{desired: in.observed.Clone()}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var readFailed int
	wg.Add(1)
	go func() {
		defer wg.Done()
		run.reads, readFailed = d.readLoop(ctx)
	}()

	prev, _ := d.svc.Incumbent()
	for i, body := range d.bodies {
		run.attempted++
		op := tr.begin(i+1, "op", -1)
		start := time.Now()
		var reply *updateReply
		var err error
		tr.call(i+1, "service.update_wait", op, func() { reply, err = d.post(body, true, http.StatusOK) })
		lat := time.Since(start)
		tr.end(op)

		mirror(run.desired, d.updates[i])
		inc, _ := d.svc.Incumbent()
		switch {
		case err != nil:
			run.rejected++
		case !reply.Adopted:
			err = fmt.Errorf("epoch %d not adopted: %s", reply.Epoch, reply.LastError)
		case inc.Epoch != reply.Epoch:
			err = fmt.Errorf("served epoch %d after adopting %d in a closed loop", inc.Epoch, reply.Epoch)
		default:
			err = checkAdoption(in.w, run.desired, prev.Allocation, inc, reply.Diff)
		}
		if inc != nil {
			prev = inc
		}
		if err != nil {
			run.failures = append(run.failures, fmt.Sprintf("update %d: %v", i+1, err))
			continue
		}
		run.adopt = append(run.adopt, lat)
		run.solve = append(run.solve, inc.SolveTime)
		run.rf = append(run.rf, inc.W/inc.V)
		run.migration = append(run.migration, reply.Diff.MigrationBytes)
	}
	cancel()
	wg.Wait()
	if readFailed > 0 {
		run.failures = append(run.failures, fmt.Sprintf("%d read(s) beside the writer failed", readFailed))
	}
	run.last = prev
	return run
}

// floodRun is what the flood workload measured.
type floodRun struct {
	acks      int
	ackWall   time.Duration // first post → last acknowledgement
	converge  time.Duration // last acknowledgement → last epoch adopted
	attempted int
	failures  []string
	last      *service.Incumbent
	desired   *model.ScenarioSet
}

// adoption is one incumbent change seen between two posts of the flood.
type adoption struct {
	prev, inc *service.Incumbent
	diff      *service.Diff
}

// runFlood posts every update back-to-back without waiting for adoption —
// each POST returns at journal-ack — then waits for the last epoch. The
// coalesced adoptions that happen meanwhile are noted after each post (two
// mutex reads) and checked once the clock has stopped.
func runFlood(in *inputs, tr *tracer) *floodRun {
	d := in.daemon
	run := &floodRun{desired: in.observed.Clone(), attempted: len(d.bodies)}
	op := tr.begin(1, "op", -1)
	defer tr.end(op)

	var seen []adoption
	prev, _ := d.svc.Incumbent()
	note := func() {
		if inc, _ := d.svc.Incumbent(); inc != prev {
			seen = append(seen, adoption{prev: prev, inc: inc, diff: d.svc.Diff()})
			prev = inc
		}
	}
	var lastEpoch uint64
	run.ackWall = tr.call(1, "service.update_ack", op, func() {
		for i, body := range d.bodies {
			reply, err := d.post(body, false, http.StatusAccepted)
			if err != nil {
				run.failures = append(run.failures, fmt.Sprintf("update %d: %v", i+1, err))
				continue
			}
			run.acks++
			lastEpoch = reply.Epoch
			note()
		}
	})
	var adopted bool
	var err error
	run.converge = tr.call(1, "service.wait_epoch", op, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		adopted, err = d.svc.WaitEpoch(ctx, lastEpoch)
	})
	note()
	run.last = prev
	switch {
	case err != nil:
	case !adopted:
		err = fmt.Errorf("last epoch %d was not adopted: %s", lastEpoch, d.svc.Status().LastError)
	case run.last.Epoch != lastEpoch:
		err = fmt.Errorf("served epoch %d, last acknowledged was %d", run.last.Epoch, lastEpoch)
	}
	if err != nil {
		run.failures = append(run.failures, err.Error())
	}

	// Every update bumps the epoch by one from the bootstrap's epoch 0, so
	// the desired set an incumbent solved is the first inc.Epoch updates.
	applied := 0
	for _, a := range seen {
		for ; applied < int(a.inc.Epoch) && applied < len(d.updates); applied++ {
			mirror(run.desired, d.updates[applied])
		}
		if a.diff == nil || a.diff.ToEpoch != a.inc.Epoch || a.diff.FromEpoch != a.prev.Epoch {
			continue // two adoptions between two posts: the plan in between was not seen
		}
		if err := checkAdoption(in.w, run.desired, a.prev.Allocation, a.inc, a.diff); err != nil {
			run.failures = append(run.failures, fmt.Sprintf("adoption of epoch %d: %v", a.inc.Epoch, err))
		}
	}
	for ; applied < len(d.updates); applied++ {
		mirror(run.desired, d.updates[applied])
	}
	return run
}
