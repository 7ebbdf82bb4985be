// Package fleet scales Tagwatch from one reader to many: a manager
// supervises N concurrent LLRP reader connections (dial, cycle, reconnect
// with exponential backoff and jitter), merges every reader's readings
// into one sharded registry keyed by EPC, fans fleet events out over a
// non-blocking bus, and serves the whole thing over HTTP — JSON APIs, an
// SSE event stream, a health probe, and Prometheus metrics.
//
// The paper's prototype drives a single ImpinJ R420; a deployment has
// aisles of them. The fleet layer is what turns the per-reader middleware
// into a service: no human restarts connections, no client talks LLRP,
// and a tag wandering between readers shows up as a handoff in a single
// merged view instead of two disagreeing ones.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"sync"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/guard"
	"tagwatch/internal/replication"
	"tagwatch/internal/statestore"
)

// ReaderConfig names one reader to supervise. An empty Name defaults to
// the address.
type ReaderConfig struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// Config tunes the fleet manager.
type Config struct {
	// Readers lists the LLRP readers to supervise.
	Readers []ReaderConfig
	// Tagwatch configures the per-reader middleware; every reader runs its
	// own instance over its own connection.
	Tagwatch core.Config
	// DialTimeout bounds each connect attempt.
	DialTimeout time.Duration
	// BackoffBase and BackoffMax bound the reconnect delay: the delay
	// doubles from the base on every consecutive failure, saturating at the
	// max, with ±20% jitter.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxFailures is the retry budget: a supervisor that fails this many
	// consecutive dials/sessions goes down for good. Zero retries forever.
	MaxFailures int
	// CyclePause idles each reader between cycles (duty cycling).
	CyclePause time.Duration
	// EventBuffer sizes per-subscriber bus buffers (SSE clients and the
	// like); a full buffer drops rather than blocks.
	EventBuffer int
	// KeepalivePeriod asks each reader for periodic KEEPALIVE messages
	// and arms the connection watchdog: KeepaliveMisses missed periods
	// kill the session with llrp.ErrKeepaliveTimeout and trigger a
	// reconnect. Zero disables the watchdog (a half-open link is then
	// only caught by per-operation deadlines).
	KeepalivePeriod time.Duration
	// KeepaliveMisses is the watchdog budget (minimum 2; default 3).
	KeepaliveMisses int
	// OpTimeout bounds each LLRP request/response exchange and socket
	// write; zero keeps llrp.DefaultOpTimeout.
	OpTimeout time.Duration
	// CycleErrorLimit forces a reconnect after this many consecutive
	// cycles ending in transport errors even if the connection has not
	// formally died — a session that cannot complete cycles is not
	// worth keeping. Zero means 3.
	CycleErrorLimit int
	// StateDir, when set, makes the merged tag registry durable: Start
	// restores it from the newest valid snapshot plus journal before any
	// supervisor runs, a background loop checkpoints it while the fleet
	// is up, and Stop writes a final snapshot.
	StateDir string
	// SnapshotInterval spaces full registry snapshots (default 60s).
	SnapshotInterval time.Duration
	// JournalFlush spaces incremental journal appends between snapshots
	// (default 2s) — the durability lag a crash can lose.
	JournalFlush time.Duration
	// StateRetain is how many snapshot generations to keep (default 2).
	StateRetain int
	// StateFS overrides the filesystem the durable store runs on; nil
	// uses the real one. The gauntlet injects a statestore.FaultFS here
	// to model full disks and failing media at runtime.
	StateFS statestore.FS
	// SSEWriteTimeout bounds each write to an /api/events client; a
	// client that cannot drain a frame within it is disconnected instead
	// of pinning the handler forever (default 10s).
	SSEWriteTimeout time.Duration
	// SSEHeartbeat spaces keepalive comment frames on an idle /api/events
	// stream so intermediaries don't sever quiet connections (default
	// 15s).
	SSEHeartbeat time.Duration
	// EventRingCap sizes the bus's replay ring — how many recent events a
	// reconnecting client can recover through Last-Event-ID before it is
	// answered with a reset instead (default 4096).
	EventRingCap int

	// ReplicateTo lists standby addresses to stream the durable registry
	// to (requires StateDir): the statestore journal is shipped over the
	// armored replication link so a standby can be promoted on this
	// node's death. Empty disables replication.
	ReplicateTo []string
	// ReplicationDial overrides the replication transport dial — the
	// hook chaos tests and the failover drill wrap with a fault
	// injector. Nil uses the default TCP dialer.
	ReplicationDial func(ctx context.Context, addr string) (net.Conn, error)
	// ReplicationHeartbeat spaces link heartbeats (zero keeps the
	// replication package default, 1s).
	ReplicationHeartbeat time.Duration
	// ReplicationBatchBytes bounds journal bytes per shipped frame (zero
	// keeps the replication package default, 1 MiB).
	ReplicationBatchBytes int64
	// ReplicationFrameTimeout bounds each replication frame I/O on both
	// ends of the link (zero keeps the replication package default, 5s).
	ReplicationFrameTimeout time.Duration
	// ReplicationBackoffBase and ReplicationBackoffMax shape the
	// shipper's reconnect backoff (zero keeps the replication package
	// defaults, 100ms and 5s).
	ReplicationBackoffBase time.Duration
	ReplicationBackoffMax  time.Duration
	// ReplicationSessionTimeout is how long a standby session survives
	// without any primary frame before it is dropped (zero keeps the
	// replication package default, 15s; must exceed the primary's
	// heartbeat interval).
	ReplicationSessionTimeout time.Duration

	// MaxTags caps the merged registry: when a shard is full, observing a
	// new tag evicts the stalest tag in that shard (with a journal
	// tombstone, so durable state shrinks too). Zero means unbounded —
	// the pre-guard behaviour, kept as the library default.
	MaxTags int
	// QuarantineK enables the ghost-tag quarantine: an EPC never seen
	// before must be sighted K times within QuarantineWindow (default
	// 10s) before it is admitted to the registry, motion models, or the
	// WAL. At most QuarantineCap EPCs (default 65536) sit on probation at
	// once; overflow evicts the oldest probe. K <= 1 disables quarantine.
	QuarantineK      int
	QuarantineWindow time.Duration
	QuarantineCap    int
	// APIRate enables per-client-IP rate limiting of the HTTP API at this
	// many requests/second with APIBurst depth (default 2×rate), tracking
	// at most APIMaxClients buckets (default 16384). Zero disables.
	APIRate       float64
	APIBurst      float64
	APIMaxClients int
	// APIMaxConcurrent enables the adaptive (AIMD) concurrency limit for
	// the HTTP API: at most this many requests run at once, shrinking
	// toward APIMinConcurrent (default 4) when requests blow the
	// APILatencyBudget (default 1s). Excess requests wait in a LIFO queue
	// of APIQueueDepth (default 64) for up to APIQueueTimeout (default
	// 200ms) before being shed with a 503. Zero disables.
	APIMaxConcurrent int
	APIMinConcurrent int
	APIQueueDepth    int
	APIQueueTimeout  time.Duration
	APILatencyBudget time.Duration
	// MaxSSEClients bounds concurrent /api/events subscribers (SSE
	// streams bypass the concurrency limit — they are long-lived by
	// design — so they need their own cap). Default 64.
	MaxSSEClients int
	// RestartBudget and RestartWindow meter supervisor panic restarts: a
	// supervisor that panics more than RestartBudget times (default 5)
	// within RestartWindow (default 1m) is tripped to dead instead of
	// restarted, so a crash loop cannot take the manager with it.
	RestartBudget int
	RestartWindow time.Duration
}

// DefaultConfig returns production-shaped fleet defaults (no readers).
func DefaultConfig() Config {
	return Config{
		Tagwatch:        core.DefaultConfig(),
		DialTimeout:     5 * time.Second,
		BackoffBase:     500 * time.Millisecond,
		BackoffMax:      30 * time.Second,
		MaxFailures:     0,
		EventBuffer:     256,
		KeepalivePeriod: 5 * time.Second,
		KeepaliveMisses: 3,
		CycleErrorLimit: 3,

		SnapshotInterval: 60 * time.Second,
		JournalFlush:     2 * time.Second,
		StateRetain:      2,
		SSEWriteTimeout:  10 * time.Second,
		SSEHeartbeat:     15 * time.Second,
		EventRingCap:     DefaultRingCap,

		QuarantineWindow: 10 * time.Second,
		QuarantineCap:    65536,
		APIMinConcurrent: 4,
		APIQueueDepth:    64,
		APIQueueTimeout:  200 * time.Millisecond,
		APILatencyBudget: time.Second,
		MaxSSEClients:    64,
		RestartBudget:    5,
		RestartWindow:    time.Minute,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.DialTimeout <= 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = d.BackoffBase
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = d.BackoffMax
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = d.EventBuffer
	}
	if c.KeepaliveMisses <= 0 {
		c.KeepaliveMisses = d.KeepaliveMisses
	}
	if c.CycleErrorLimit <= 0 {
		c.CycleErrorLimit = d.CycleErrorLimit
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = d.SnapshotInterval
	}
	if c.JournalFlush <= 0 {
		c.JournalFlush = d.JournalFlush
	}
	if c.StateRetain <= 0 {
		c.StateRetain = d.StateRetain
	}
	if c.SSEWriteTimeout <= 0 {
		c.SSEWriteTimeout = d.SSEWriteTimeout
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = d.SSEHeartbeat
	}
	if c.EventRingCap <= 0 {
		c.EventRingCap = d.EventRingCap
	}
	if c.QuarantineWindow <= 0 {
		c.QuarantineWindow = d.QuarantineWindow
	}
	if c.QuarantineCap <= 0 {
		c.QuarantineCap = d.QuarantineCap
	}
	if c.APIMinConcurrent <= 0 {
		c.APIMinConcurrent = d.APIMinConcurrent
	}
	if c.APIQueueTimeout <= 0 {
		c.APIQueueTimeout = d.APIQueueTimeout
	}
	if c.APILatencyBudget <= 0 {
		c.APILatencyBudget = d.APILatencyBudget
	}
	if c.MaxSSEClients <= 0 {
		c.MaxSSEClients = d.MaxSSEClients
	}
	if c.RestartBudget <= 0 {
		c.RestartBudget = d.RestartBudget
	}
	if c.RestartWindow <= 0 {
		c.RestartWindow = d.RestartWindow
	}
	return c
}

// Manager supervises the fleet: one supervisor goroutine per reader, a
// shared registry, and a shared event bus.
type Manager struct {
	cfg Config
	reg *Registry
	bus *Bus

	// sentinel contains panics in supervised components; admission guards
	// the HTTP API. Both are always present (zero config degrades them to
	// pass-through plus panic containment).
	sentinel  *guard.Sentinel
	admission *guard.Admission

	// store is the durable registry backing; nil when StateDir is unset.
	// Its Journal returns only after a concurrent Journal's append is
	// acked, which SyncReplication's quiesce relies on.
	store *statestore.Store
	// shipper streams the store's journal to standbys; nil when
	// ReplicateTo is empty.
	shipper *replication.Shipper

	mu      sync.Mutex
	sups    []*supervisor
	ingests []*Ingest
	cancel  context.CancelFunc
	started time.Time
	wg      sync.WaitGroup
}

// New builds a manager. Call Start to begin supervising.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg: cfg,
		reg: NewRegistry(),
		bus: NewBus(),
	}
	m.bus.SetSubscriberLimit(cfg.MaxSSEClients)
	m.bus.SetRingCap(cfg.EventRingCap)
	// Every registry mutation becomes a bus event (full image / drop),
	// published under the owning shard lock: the delta stream the edge
	// tier mirrors. Publish never blocks, so holding the lock is safe.
	m.reg.Notify(
		func(st TagState) {
			m.bus.Publish(Event{Type: EventTag, Reader: st.Reader, At: st.LastSeen, EPC: st.EPC, Tag: &st})
		},
		func(epcStr string) {
			m.bus.Publish(Event{Type: EventTagDrop, At: time.Now(), EPC: epcStr})
		},
	)
	var quar *guard.Quarantine[epc.EPC]
	if cfg.QuarantineK > 1 {
		quar = guard.NewQuarantine[epc.EPC](cfg.QuarantineK, cfg.QuarantineWindow, cfg.QuarantineCap)
	}
	m.reg.Guard(cfg.MaxTags, quar)
	m.sentinel = guard.NewSentinel(func(component string, perr *guard.PanicError) {
		m.bus.Publish(Event{
			Type: EventPanic, Reader: component, At: time.Now(),
			State: "contained", Error: perr.Error(),
		})
	})
	m.admission = guard.NewAdmission(guard.AdmissionConfig{
		RatePerClient: cfg.APIRate,
		Burst:         cfg.APIBurst,
		MaxClients:    cfg.APIMaxClients,
		MaxConcurrent: cfg.APIMaxConcurrent,
		MinConcurrent: cfg.APIMinConcurrent,
		QueueDepth:    cfg.APIQueueDepth,
		QueueTimeout:  cfg.APIQueueTimeout,
		LatencyBudget: cfg.APILatencyBudget,
		// Health and metrics must answer during the exact overload this
		// layer manages; SSE streams are long-lived by design and bounded
		// by the subscriber cap instead of a concurrency slot.
		Bypass: func(r *http.Request) bool {
			return r.URL.Path == "/healthz" || r.URL.Path == "/metrics"
		},
		NoSlot: func(r *http.Request) bool { return r.URL.Path == "/api/events" },
	})
	for i, rc := range cfg.Readers {
		name := rc.Name
		if name == "" {
			name = rc.Addr
		}
		// Derive a stable per-supervisor jitter seed from the identity so
		// two supervisors never share a backoff schedule.
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%d", name, rc.Addr, i)
		s := newSupervisor(name, rc.Addr, cfg, m.reg, m.bus, int64(h.Sum64()))
		s.breaker = guard.NewBreaker(guard.BreakerConfig{
			Budget: cfg.RestartBudget,
			Window: cfg.RestartWindow,
		})
		m.sups = append(m.sups, s)
	}
	return m
}

// Start launches every supervisor. The fleet runs until ctx is cancelled
// or Stop is called. With a StateDir configured, the registry is
// restored from disk BEFORE the first supervisor runs (so recovered
// state never races live observations) and a checkpoint loop keeps it
// durable; a state directory that cannot be opened or restored fails
// Start outright rather than running amnesiac.
func (m *Manager) Start(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cancel != nil {
		return nil // already started
	}
	if m.cfg.StateDir != "" {
		if err := m.openState(); err != nil {
			return err
		}
	}
	if len(m.cfg.ReplicateTo) > 0 {
		if m.store == nil {
			return errors.New("fleet: ReplicateTo requires StateDir (replication ships the durable journal)")
		}
		m.shipper = replication.NewShipper(m.store, replication.Config{
			Peers:         m.cfg.ReplicateTo,
			Dial:          m.cfg.ReplicationDial,
			Heartbeat:     m.cfg.ReplicationHeartbeat,
			MaxBatchBytes: m.cfg.ReplicationBatchBytes,
			FrameTimeout:  m.cfg.ReplicationFrameTimeout,
			BackoffBase:   m.cfg.ReplicationBackoffBase,
			BackoffMax:    m.cfg.ReplicationBackoffMax,
		})
	}
	ctx, m.cancel = context.WithCancel(ctx)
	m.started = time.Now()
	if m.store != nil {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			// A checkpoint-loop panic degrades the fleet to non-durable; it
			// must not kill the process. The sentinel has already counted
			// and published it. //tagwatch:allow-droppederr containment only; no restart decision rides on this error
			_ = m.sentinel.Do("checkpoint", func() { m.checkpointLoop(ctx) })
		}()
	}
	if m.shipper != nil {
		shipper := m.shipper
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			// A replication panic degrades the fleet to unreplicated, not
			// dead: the registry and its durability are untouched.
			//tagwatch:allow-droppederr containment only; the sentinel counted and published the panic
			_ = m.sentinel.Do("replication", func() { shipper.Run(ctx) })
		}()
	}
	for _, s := range m.sups {
		s := s
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.runSupervised(ctx, s)
		}()
	}
	return nil
}

// runSupervised runs one supervisor under panic containment: a panic
// anywhere in its dial/cycle machinery is counted and published, then the
// supervisor restarts after the breaker's backoff — until the restart
// budget for the window is spent, at which point the supervisor trips to
// dead and stays there while the rest of the fleet keeps running.
func (m *Manager) runSupervised(ctx context.Context, s *supervisor) {
	for {
		err := m.sentinel.Do("supervisor."+s.name, func() { s.run(ctx) })
		if err == nil {
			return // clean exit: ctx cancelled or retry budget spent
		}
		delay, ok := s.breaker.Next(time.Now())
		if !ok {
			s.trip(err)
			m.bus.Publish(Event{
				Type: EventPanic, Reader: s.name, At: time.Now(),
				State: "tripped", Error: err.Error(),
			})
			return
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			s.setState(StateDown, nil)
			return
		}
	}
}

// Stop cancels every supervisor and waits for them to exit, then — when
// the registry is durable — writes the final flush and snapshot and
// closes the store. The returned error surfaces a failed final save: a
// node that could not persist its last state must exit unclean, not
// pretend the shutdown was safe (the failure is also published on the
// bus for live observers).
func (m *Manager) Stop() error {
	m.mu.Lock()
	cancel := m.cancel
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	m.wg.Wait()
	m.mu.Lock()
	store := m.store
	m.mu.Unlock()
	var err error
	if store != nil {
		err = m.closeState()
		m.mu.Lock()
		m.store = nil
		m.shipper = nil
		m.mu.Unlock()
	}
	return err
}

// Kill simulates abrupt process death for failover drills: cancel
// everything and close the store WITHOUT the final flush and snapshot,
// so registry changes newer than the last checkpoint are lost exactly
// as a real crash would lose them.
func (m *Manager) Kill() {
	m.mu.Lock()
	cancel := m.cancel
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	m.wg.Wait()
	m.mu.Lock()
	store := m.store
	m.store = nil
	m.shipper = nil
	m.mu.Unlock()
	if store != nil {
		store.Close()
	}
}

// SyncReplication flushes the dirty registry into the journal and waits
// until every replication peer has acked the committed cursor — the
// quiesce point a planned failover (and the drill) uses to make the
// in-flight window empty. Without replication it just flushes.
func (m *Manager) SyncReplication(ctx context.Context) error {
	m.mu.Lock()
	store, shipper := m.store, m.shipper
	m.mu.Unlock()
	if store == nil {
		return errors.New("fleet: no durable state to sync")
	}
	if err := store.Journal(m.reg); err != nil {
		return fmt.Errorf("fleet: sync flush: %w", err)
	}
	if shipper == nil {
		return nil
	}
	return shipper.WaitSynced(ctx)
}

// ReplicationStatus snapshots every replication peer's state; nil when
// replication is disabled.
func (m *Manager) ReplicationStatus() []replication.PeerStatus {
	m.mu.Lock()
	shipper := m.shipper
	m.mu.Unlock()
	if shipper == nil {
		return nil
	}
	return shipper.Status()
}

// Registry exposes the merged tag view.
func (m *Manager) Registry() *Registry { return m.reg }

// Bus exposes the fleet event bus.
func (m *Manager) Bus() *Bus { return m.bus }

// Readers snapshots the status of every supervised reader, in
// configuration order, followed by any synthetic ingests in registration
// order.
func (m *Manager) Readers() []ReaderStatus {
	m.mu.Lock()
	ingests := append([]*Ingest(nil), m.ingests...)
	m.mu.Unlock()
	out := make([]ReaderStatus, 0, len(m.sups)+len(ingests))
	for _, s := range m.sups {
		out = append(out, s.status())
	}
	for _, in := range ingests {
		out = append(out, in.status())
	}
	return out
}

// Healthy reports whether at least one reader is up (the /healthz
// predicate). A fleet with no readers configured is trivially healthy.
func (m *Manager) Healthy() bool {
	if len(m.sups) == 0 {
		return true
	}
	for _, s := range m.sups {
		if s.status().State == StateUp.String() {
			return true
		}
	}
	return false
}

// Started reports when Start was called (zero before then).
func (m *Manager) Started() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.started
}
