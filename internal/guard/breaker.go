package guard

import (
	"sync"
	"time"
)

// BreakerConfig tunes a restart budget.
type BreakerConfig struct {
	// Budget is how many restarts the window allows before the breaker
	// trips to dead (default 5). A tripped breaker never un-trips: a
	// component that panics this often needs a human, not a retry loop.
	Budget int
	// Window is the sliding interval the budget applies to (default 1m).
	Window time.Duration
	// BackoffBase and BackoffMax bound the delay handed out before each
	// restart: the delay doubles with every restart still inside the
	// window, saturating at the max (defaults 100ms and 10s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Budget <= 0 {
		c.Budget = 5
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = 10 * time.Second
	}
	return c
}

// Breaker meters restarts of one crashing component: each failure costs
// one unit of a per-window budget and buys an exponentially growing
// backoff delay; spending the whole budget inside one window trips the
// breaker permanently. It is the fleet's answer to a supervisor that
// panics in a tight loop — restarted while plausibly transient, severed
// before it can take the manager down with it.
type Breaker struct {
	cfg BreakerConfig

	mu      sync.Mutex
	recent  []time.Time // failure instants still inside the window
	tripped bool
	trips   uint64 // 0 or 1; kept as a counter for the metrics shape
}

// NewBreaker builds a breaker from cfg (zero fields take defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Next records a failure at time at. It returns the backoff delay to
// wait before restarting, or ok=false when this failure exhausted the
// window's budget and the breaker has tripped to dead.
func (b *Breaker) Next(at time.Time) (delay time.Duration, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tripped {
		return 0, false
	}
	cutoff := at.Add(-b.cfg.Window)
	kept := b.recent[:0]
	for _, t := range b.recent {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	b.recent = append(kept, at)
	if len(b.recent) > b.cfg.Budget {
		b.tripped = true
		b.trips++
		return 0, false
	}
	// Exponential in the number of in-window failures: sparse panics pay
	// the base, a burst climbs toward the cap.
	return Backoff(b.cfg.BackoffBase, b.cfg.BackoffMax, len(b.recent)), true
}

// Backoff is the delay before retry n of a failing operation (n < 1
// counts as 1): base, doubled once per consecutive failure after the
// first, capped at ceiling. Doubling stops at the cap, so no n
// overflows.
func Backoff(base, ceiling time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n && d < ceiling; i++ {
		if d > ceiling/2 {
			return ceiling
		}
		d *= 2
	}
	return min(d, ceiling)
}

// Jitter spreads a backoff delay by ±20 % so clients that failed
// together do not retry in lockstep: u, a uniform draw from [0, 1),
// scales d by 0.8 + 0.4u.
func Jitter(d time.Duration, u float64) time.Duration {
	return time.Duration(float64(d) * (0.8 + 0.4*u))
}

// Tripped reports whether the budget has been exhausted.
func (b *Breaker) Tripped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tripped
}

// Restarts reports how many failures are currently inside the window
// and whether the breaker is dead — the metrics snapshot.
func (b *Breaker) Restarts() (inWindow int, tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recent), b.tripped
}
