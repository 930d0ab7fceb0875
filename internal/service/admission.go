// Admission control: under an update burst the daemon stays responsive by
// refusing early and cheaply instead of queueing without bound. The two gates
// — a bound on updates accepted but not yet solved, and a token bucket on the
// ingest rate — run inside state.ingest and reject with an OverloadedError
// carrying a Retry-After hint, which the HTTP layer maps to 429. Single-flight
// coalescing keeps the bound meaningful: N pending updates cost one solve.
package service

import (
	"fmt"
	"time"
)

// AdmissionConfig bounds update ingest. The zero value of each field
// disables that gate.
type AdmissionConfig struct {
	// Rate is the sustained updates-per-second the daemon admits; Burst is
	// the bucket depth (how many updates may arrive back-to-back before the
	// rate applies). Burst defaults to max(1, ceil(Rate)) when Rate > 0.
	Rate  float64
	Burst int
	// MaxPending bounds the pending-update queue: once the desired epoch is
	// this many updates ahead of the incumbent, further updates are refused
	// until a solve catches up.
	MaxPending int
}

func (a AdmissionConfig) withDefaults() (AdmissionConfig, error) {
	if a.Rate < 0 {
		return a, fmt.Errorf("service: Admission.Rate %v must be >= 0", a.Rate)
	}
	if a.MaxPending < 0 {
		return a, fmt.Errorf("service: Admission.MaxPending %d must be >= 0", a.MaxPending)
	}
	if a.Rate > 0 && a.Burst < 1 {
		a.Burst = int(a.Rate)
		if float64(a.Burst) < a.Rate {
			a.Burst++
		}
		if a.Burst < 1 {
			a.Burst = 1
		}
	}
	return a, nil
}

// OverloadedError rejects an update the admission gates refused. RetryAfter
// is the earliest instant a retry could be admitted (rate gate) or a
// heuristic solve-catch-up estimate (queue gate); the HTTP layer rounds it
// up into a Retry-After header on the 429.
type OverloadedError struct {
	Reason     string // "rate" or "queue"
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("service: update refused (%s limit); retry in %v", e.Reason, e.RetryAfter)
}
