package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"tagwatch/internal/promtext"
	"tagwatch/internal/replication"
)

// Standby is a warm spare fleetd: it accepts a primary's replication
// stream into the configured StateDir and can be promoted into a live
// Manager at any moment. Until promotion it runs no supervisors, merges
// no readings, and serves only a minimal status surface; at promotion
// the replicated directory is restored through the exact same path a
// restarting primary uses.
type Standby struct {
	cfg Config

	mu       sync.Mutex
	repl     *replication.Standby
	cancel   context.CancelFunc
	done     chan struct{}
	started  time.Time
	stopped  bool
	promoted *Manager
}

// NewStandby builds a standby that applies replication into
// cfg.StateDir, listening for the primary on lis. The rest of cfg is
// held for promotion: Promote starts a Manager with exactly this
// configuration over the replicated state.
func NewStandby(cfg Config, lis net.Listener) (*Standby, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, errors.New("fleet: standby requires StateDir (the replicated store is what gets promoted)")
	}
	repl, err := replication.NewStandby(lis, replication.StandbyConfig{
		Dir:            cfg.StateDir,
		Retain:         cfg.StateRetain,
		FrameTimeout:   cfg.ReplicationFrameTimeout,
		SessionTimeout: cfg.ReplicationSessionTimeout,
	})
	if err != nil {
		return nil, err
	}
	return &Standby{cfg: cfg, repl: repl}, nil
}

// Start begins accepting and applying the replication stream. The
// standby runs until ctx is cancelled, Stop, or Promote. A Standby is
// single-shot: Stop releases the listener and store, so a Start after
// Stop is an error rather than a silently dead replication loop.
func (s *Standby) Start(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted != nil {
		return errors.New("fleet: standby already promoted")
	}
	if s.stopped {
		return errors.New("fleet: standby already stopped (the replication listener and store are released; build a new standby)")
	}
	if s.cancel != nil || s.done != nil {
		return errors.New("fleet: standby already started")
	}
	ctx, s.cancel = context.WithCancel(ctx)
	s.started = time.Now()
	s.done = make(chan struct{})
	go func(done chan struct{}) {
		defer close(done)
		s.repl.Run(ctx)
	}(s.done)
	return nil
}

// Stop ends replication and releases the store directory — whether or
// not Start ever ran. The applied state stays on disk; a later
// NewStandby (or Promote on this one) picks it back up. Stop is
// terminal: this Standby cannot Start again afterwards.
func (s *Standby) Stop() {
	s.mu.Lock()
	cancel, done := s.cancel, s.done
	s.cancel = nil
	alreadyStopped := s.stopped
	s.stopped = true
	s.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
		return
	}
	if !alreadyStopped && done == nil {
		// Never started: Run never ran, so nothing has released the
		// listener and store NewStandby opened. Do it here — otherwise
		// a Promote without a prior Start would open a second store
		// over the same StateDir while this one still holds it.
		_ = s.repl.Close() //tagwatch:allow-droppederr no session ever wrote through this store; the close error cannot affect promoted state
	}
}

// Promote turns the replicated directory into a live fleet: replication
// stops, the store closes, and a Manager starts over the same StateDir
// — restoring the registry through the identical snapshot+journal
// recovery a restarting primary uses. The returned Manager is started;
// the caller owns serving and stopping it. Everything the primary
// flushed-and-shipped before dying is present; at most the in-flight
// window (unflushed registry changes plus unacked frames) is lost.
func (s *Standby) Promote(ctx context.Context) (*Manager, error) {
	s.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted != nil {
		return s.promoted, nil
	}
	m := New(s.cfg)
	if err := m.Start(ctx); err != nil {
		return nil, fmt.Errorf("fleet: promote standby: %w", err)
	}
	s.promoted = m
	return m, nil
}

// Status reports the replication link state.
func (s *Standby) Status() replication.StandbyStatus {
	return s.repl.Status()
}

// Handler serves the standby's minimal HTTP surface:
//
//	GET /healthz     200 while the replication link is live, else 503
//	GET /api/status  role, link state, applied cursor, lag
//	GET /metrics     replication gauges in Prometheus text format
//
// It intentionally exposes no tag data: the standby's registry does not
// exist until promotion, and answering from half-applied state would be
// a lie.
func (s *Standby) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := s.repl.Status()
		code, state := http.StatusOK, "ok"
		if !st.Connected {
			code, state = http.StatusServiceUnavailable, "degraded"
		}
		WriteJSON(w, code, struct {
			Status    string `json:"status"`
			Role      string `json:"role"`
			Connected bool   `json:"connected"`
		}{state, "standby", st.Connected})
	})
	mux.HandleFunc("GET /api/status", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		started := s.started
		s.mu.Unlock()
		WriteJSON(w, http.StatusOK, struct {
			Role        string                    `json:"role"`
			UptimeSecs  int64                     `json:"uptime_secs"`
			Replication replication.StandbyStatus `json:"replication"`
		}{"standby", int64(time.Since(started).Seconds()), s.repl.Status()})
	})
	mux.Handle("GET /metrics", promtext.Handler(func(p *promtext.Page) {
		st := s.repl.Status()
		p.Gauge("tagwatch_standby_connected", "Whether a primary's replication session is live.").Int(promtext.Bool(st.Connected))
		p.Gauge("tagwatch_standby_lag_bytes", "Primary committed-minus-applied journal bytes (-1 unknown).").Int(st.LagBytes)
		p.Counter("tagwatch_standby_records_applied_total", "Journal records applied from the stream.").Uint(st.Records)
		p.Counter("tagwatch_standby_snapshots_applied_total", "Snapshots applied from the stream.").Uint(st.Snapshots)
		p.Counter("tagwatch_standby_wipes_total", "Local stores discarded for a full resync.").Uint(st.Wipes)
		p.Counter("tagwatch_standby_sessions_total", "Replication sessions accepted.").Uint(st.Sessions)
	}))
	return mux
}
