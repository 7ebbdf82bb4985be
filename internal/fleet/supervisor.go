package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/guard"
	"tagwatch/internal/llrp"
)

// ReaderState is the supervisor's connection state machine.
type ReaderState int32

const (
	// StateConnecting means a dial is in flight.
	StateConnecting ReaderState = iota
	// StateUp means the LLRP session is established and cycles are running.
	StateUp
	// StateBackoff means the last attempt or session failed and the
	// supervisor is waiting out a backoff delay before redialing.
	StateBackoff
	// StateDown means the retry budget is exhausted (or the fleet stopped)
	// and the supervisor has given up.
	StateDown
)

// String renders the state for APIs and logs.
func (s ReaderState) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateUp:
		return "up"
	case StateBackoff:
		return "backoff"
	default:
		return "down"
	}
}

// ReaderStatus is the externally visible snapshot of one supervised
// reader.
type ReaderStatus struct {
	Name  string `json:"name"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Attempts counts every dial ever made; ConsecutiveFailures resets on a
	// successful session and drives the backoff exponent and retry budget.
	Attempts            int `json:"attempts"`
	ConsecutiveFailures int `json:"consecutive_failures"`
	Reconnects          int `json:"reconnects"`
	// CycleErrors counts cycles that ended with a transport error —
	// degraded operation even while the session nominally stays up.
	CycleErrors int    `json:"cycle_errors,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	// DiscardedReports counts tag reports, over every session, that
	// named another ROSpec than the one running and were dropped.
	DiscardedReports uint64 `json:"discarded_reports,omitempty"`
	// Tripped means the supervisor spent its panic-restart budget and was
	// severed from the fleet; PanicRestarts counts how many panic
	// restarts are inside the current budget window.
	Tripped       bool `json:"tripped,omitempty"`
	PanicRestarts int  `json:"panic_restarts,omitempty"`
	// ConnectedAt is zero unless the reader is up.
	ConnectedAt time.Time `json:"connected_at,omitempty"`
	Cycles      int       `json:"cycles"`
	Readings    uint64    `json:"readings"`
}

// supervisor owns one reader connection for its whole lifetime: dial,
// run Tagwatch cycles, and on any failure reconnect with exponential
// backoff plus jitter under a capped retry budget.
type supervisor struct {
	name string
	addr string
	cfg  Config
	reg  *Registry
	bus  *Bus
	rng  *rand.Rand

	// breaker meters panic restarts (set by the Manager; nil in direct
	// unit-test construction, where containment is not in play).
	breaker *guard.Breaker
	// crash, when non-nil, runs at the top of every run() iteration. It
	// exists so tests can inject a deterministic panic into the supervisor
	// loop; production never sets it.
	crash func()

	mu          sync.Mutex
	state       ReaderState
	attempts    int
	consecFails int
	sessions    int // successful connects; reconnects = sessions - 1
	lastErr     error
	connectedAt time.Time
	cycles      int
	cycleErrors int
	tripped     bool
	// discarded sums the finished sessions' discarded reports; dev is
	// the live session's device, nil between sessions.
	discarded uint64
	dev       *core.LLRPDevice

	readings atomic.Uint64
}

func newSupervisor(name, addr string, cfg Config, reg *Registry, bus *Bus, seed int64) *supervisor {
	return &supervisor{
		name: name,
		addr: addr,
		cfg:  cfg,
		reg:  reg,
		bus:  bus,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// status snapshots the supervisor state for the API layer.
func (s *supervisor) status() ReaderStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ReaderStatus{
		Name:                s.name,
		Addr:                s.addr,
		State:               s.state.String(),
		Attempts:            s.attempts,
		ConsecutiveFailures: s.consecFails,
		Cycles:              s.cycles,
		CycleErrors:         s.cycleErrors,
		DiscardedReports:    s.discarded,
		Readings:            s.readings.Load(),
	}
	if s.dev != nil {
		st.DiscardedReports += s.dev.Discarded()
	}
	if s.sessions > 1 {
		st.Reconnects = s.sessions - 1
	}
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	if s.state == StateUp {
		st.ConnectedAt = s.connectedAt
	}
	st.Tripped = s.tripped
	if s.breaker != nil {
		st.PanicRestarts, _ = s.breaker.Restarts()
	}
	return st
}

// trip marks the supervisor dead after its panic-restart budget is spent.
func (s *supervisor) trip(err error) {
	s.mu.Lock()
	s.tripped = true
	s.mu.Unlock()
	s.setState(StateDown, err)
}

// setState transitions the state machine and publishes the change.
func (s *supervisor) setState(state ReaderState, err error) {
	s.mu.Lock()
	s.state = state
	if err != nil {
		s.lastErr = err
	}
	attempt := s.attempts
	s.mu.Unlock()
	ev := Event{Type: EventReaderState, Reader: s.name, At: time.Now(), State: state.String(), Attempt: attempt}
	if err != nil {
		ev.Error = err.Error()
	}
	s.bus.Publish(ev)
}

// backoffDelay computes the next reconnect delay: exponential from the
// base, capped at the max, with ±20% jitter so a fleet of supervisors
// losing one switch does not redial in lockstep.
func (s *supervisor) backoffDelay() time.Duration {
	s.mu.Lock()
	n := s.consecFails
	s.mu.Unlock()
	return guard.Jitter(guard.Backoff(s.cfg.BackoffBase, s.cfg.BackoffMax, n), s.rng.Float64())
}

// run is the supervisor main loop; it returns when ctx is cancelled or the
// retry budget is spent.
func (s *supervisor) run(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			s.setState(StateDown, nil)
			return
		}
		if s.crash != nil {
			s.crash()
		}
		s.mu.Lock()
		s.attempts++
		s.mu.Unlock()
		s.setState(StateConnecting, nil)

		dctx, cancel := context.WithTimeout(ctx, s.cfg.DialTimeout)
		conn, err := llrp.Dial(dctx, s.addr)
		cancel()
		if err == nil {
			s.mu.Lock()
			s.sessions++
			s.consecFails = 0
			s.connectedAt = time.Now()
			s.mu.Unlock()
			s.setState(StateUp, nil)

			serveErr := s.serve(ctx, conn)
			conn.Close()
			err = conn.Err()
			// A cycle-level failure (e.g. the cycle-error budget spent on a
			// link that never formally died) names the cause better than the
			// ErrClosed our own teardown produces.
			if serveErr != nil {
				err = serveErr
			}
		}

		if ctx.Err() != nil {
			s.setState(StateDown, nil)
			return
		}
		s.mu.Lock()
		s.consecFails++
		fails := s.consecFails
		s.mu.Unlock()
		if s.cfg.MaxFailures > 0 && fails >= s.cfg.MaxFailures {
			s.setState(StateDown, err)
			return
		}
		s.setState(StateBackoff, err)
		select {
		case <-time.After(s.backoffDelay()):
		case <-ctx.Done():
			s.setState(StateDown, nil)
			return
		}
	}
}

// serve runs Tagwatch cycles over an established connection until the
// session dies or the fleet stops, returning the reason the session was
// abandoned (nil on clean shutdown). Every reading is merged into the
// fleet registry as it is delivered; after each cycle the per-tag
// assessments (mobility verdict, IRR) are refreshed and a cycle summary
// is published.
//
// Cycle errors are consumed here rather than ignored: a cycle whose
// transport failed publishes its error on the bus, and a run of
// CycleErrorLimit consecutive failing cycles — or a formally dead
// connection — abandons the session so the reconnect loop takes over,
// instead of serving stale "empty field" data forever.
func (s *supervisor) serve(ctx context.Context, conn *llrp.Conn) error {
	// Closing the connection on cancel unblocks an in-flight RunCycle.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	if s.cfg.OpTimeout > 0 {
		conn.SetOpTimeout(s.cfg.OpTimeout)
	}
	if s.cfg.KeepalivePeriod > 0 {
		kctx, cancel := context.WithTimeout(ctx, s.cfg.DialTimeout)
		err := conn.StartKeepalive(kctx, s.cfg.KeepalivePeriod, s.cfg.KeepaliveMisses)
		cancel()
		if err != nil {
			return fmt.Errorf("fleet: keepalive setup: %w", err)
		}
	}

	dev := core.NewLLRPDevice(conn)
	s.mu.Lock()
	s.dev = dev
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.discarded += dev.Discarded()
		s.dev = nil
		s.mu.Unlock()
	}()
	tw := core.New(s.cfg.Tagwatch, dev)
	tw.Subscribe(func(r core.Reading) {
		s.readings.Add(1)
		if ho, moved := s.reg.Observe(s.name, r, time.Now()); moved {
			s.bus.Publish(Event{
				Type: EventHandoff, Reader: s.name, At: ho.At,
				EPC: ho.EPC, From: ho.From, To: ho.To,
			})
		}
	})

	consecCycleErrs := 0
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-conn.Done():
			return nil // conn.Err() names the cause
		default:
		}

		rep := tw.RunCycle()
		s.mu.Lock()
		s.cycles++
		if rep.Err != nil {
			s.cycleErrors++
			s.lastErr = rep.Err
		}
		s.mu.Unlock()

		mobile := make(map[string]bool, len(rep.Mobile))
		for _, code := range rep.Mobile {
			mobile[code.String()] = true
		}
		for _, code := range rep.Present {
			s.reg.UpdateAssessment(s.name, code, mobile[code.String()], tw.History().IRR(code))
		}
		summary := &CycleSummary{
			Present:       len(rep.Present),
			Mobile:        len(rep.Mobile),
			Targets:       len(rep.Targets),
			Masks:         len(rep.Plan.Masks),
			FellBack:      rep.FellBack,
			PhaseIReads:   len(rep.PhaseIReads),
			PhaseIIReads:  len(rep.PhaseIIReads),
			ScheduleCostU: rep.ScheduleCost.Microseconds(),
		}
		if rep.Err != nil {
			summary.Err = rep.Err.Error()
		}
		s.bus.Publish(Event{Type: EventCycle, Reader: s.name, At: time.Now(), Cycle: summary})

		if rep.Err != nil {
			consecCycleErrs++
			if err := conn.Err(); err != nil {
				return nil // formally dead; run() reports conn.Err()
			}
			if s.cfg.CycleErrorLimit > 0 && consecCycleErrs >= s.cfg.CycleErrorLimit {
				return fmt.Errorf("fleet: %d consecutive cycle errors, last: %w",
					consecCycleErrs, rep.Err)
			}
		} else {
			consecCycleErrs = 0
		}

		if s.cfg.CyclePause > 0 {
			select {
			case <-time.After(s.cfg.CyclePause):
			case <-ctx.Done():
				return nil
			case <-conn.Done():
				return nil
			}
		}
	}
}
