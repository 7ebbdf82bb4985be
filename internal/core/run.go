package core

import (
	"context"
	"time"

	"tagwatch/internal/guard"
)

// unhealthyPauseBase and unhealthyPauseMax bound the degraded-mode
// backoff Run applies between failing cycles: the pause doubles from the
// base (or the configured pause, whichever is larger) on each
// consecutive cycle error, saturating at the max, and snaps back to the
// configured pause on the first healthy cycle.
const (
	unhealthyPauseBase = 100 * time.Millisecond
	unhealthyPauseMax  = 10 * time.Second
)

// Run executes reading cycles continuously until the context is cancelled,
// delivering each cycle's report on the returned channel (closed on exit).
// This is the long-lived deployment shape of Fig. 6: cycles "occur
// alternatively and periodically". A non-positive pause runs back-to-back
// cycles; a positive pause idles the reader between cycles (duty cycling).
//
// Failures degrade rather than spin: when a cycle reports a transport
// error the loop keeps delivering (error-carrying) reports but grows the
// inter-cycle pause exponentially, so a dead reader costs retries per
// tens-of-seconds instead of a hot loop of doomed ROSpecs.
//
// Run owns the Tagwatch instance while active: RunCycle must not be called
// concurrently (the middleware is single-threaded by design, like the
// reader's medium access).
func (tw *Tagwatch) Run(ctx context.Context, pause time.Duration) <-chan CycleReport {
	out := make(chan CycleReport)
	go func() {
		defer close(out)
		consecErrs := 0
		for {
			if ctx.Err() != nil {
				return
			}
			rep := tw.RunCycle()
			if rep.Err != nil {
				consecErrs++
			} else {
				consecErrs = 0
			}
			select {
			case out <- rep:
			case <-ctx.Done():
				return
			}
			delay := pause
			if consecErrs > 0 {
				delay = unhealthyPause(pause, consecErrs)
			}
			if delay > 0 {
				if sd, ok := tw.dev.(*SimDevice); ok {
					// Virtual-time devices idle on the simulated clock.
					sd.R.Advance(delay)
				} else {
					select {
					case <-time.After(delay):
					case <-ctx.Done():
						return
					}
				}
			}
		}
	}()
	return out
}

// unhealthyPause computes the degraded-mode inter-cycle delay after n
// consecutive cycle errors (n >= 1).
func unhealthyPause(pause time.Duration, n int) time.Duration {
	return guard.Backoff(max(pause, unhealthyPauseBase), unhealthyPauseMax, n)
}
