package replication

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	mrand "math/rand"
	"net"
	"sync"
	"time"

	"tagwatch/internal/guard"
	"tagwatch/internal/statestore"
)

// Config tunes a Shipper.
type Config struct {
	// Peers are the standby addresses to replicate to (host:port).
	Peers []string
	// Dial overrides the transport dial — the hook chaos tests and the
	// failover drill wrap with a fault injector. Nil uses net.Dialer.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// DialTimeout bounds each connect attempt (default 5s).
	DialTimeout time.Duration
	// FrameTimeout bounds each frame write and the hello/cursor reads
	// (default 5s) so a stalled link fails the session instead of
	// wedging the shipper.
	FrameTimeout time.Duration
	// Heartbeat spaces primary→standby heartbeats while the stream is
	// idle (default 1s). Each heartbeat is acked, so it doubles as the
	// liveness probe for both directions.
	Heartbeat time.Duration
	// AckTimeout is how long a session survives without any ack before
	// it is torn down and redialed (default 3×Heartbeat + FrameTimeout).
	AckTimeout time.Duration
	// BackoffBase and BackoffMax bound the redial delay: doubling from
	// the base per consecutive failure, saturating at the max, with
	// ±20% jitter (defaults 100ms, 5s — replication reconnects fast).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxBatchBytes bounds the journal bytes per records frame
	// (default 1 MiB).
	MaxBatchBytes int64
	// PrimaryID identifies this primary instance to standbys; a standby
	// holding another identity's cursor is re-anchored instead of
	// resumed. Empty generates a random identity.
	PrimaryID string
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.FrameTimeout <= 0 {
		c.FrameTimeout = 5 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 3*c.Heartbeat + c.FrameTimeout
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = 5 * time.Second
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 1 << 20
	}
	if c.PrimaryID == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand failing is effectively fatal elsewhere; a fixed
			// fallback identity still replicates, it just can't tell two
			// such primaries apart.
			c.PrimaryID = "primary-0"
		} else {
			c.PrimaryID = hex.EncodeToString(b[:])
		}
	}
	return c
}

// PeerStatus is one standby's replication state as the primary sees it.
type PeerStatus struct {
	Addr      string `json:"addr"`
	State     string `json:"state"` // dialing | backoff | resync | streaming
	Connected bool   `json:"connected"`
	// Sent is the primary cursor shipped through; Acked the cursor the
	// standby confirmed applied.
	Sent  statestore.Cursor `json:"sent"`
	Acked statestore.Cursor `json:"acked"`
	// LagBytes is committed-minus-acked within the same generation; -1
	// when the gap spans generations (a resync is in flight or due).
	LagBytes int64 `json:"lag_bytes"`
	// LastAckAgeMS is milliseconds since the last ack (-1 before any).
	LastAckAgeMS int64  `json:"last_ack_age_ms"`
	Reconnects   uint64 `json:"reconnects"`
	Resyncs      uint64 `json:"resyncs"`
	Snapshots    uint64 `json:"snapshots_sent"`
	Records      uint64 `json:"records_sent"`
	LastError    string `json:"last_error,omitempty"`
}

// Shipper streams a statestore's journal to every configured peer, one
// session goroutine per peer. It never blocks the store's append path:
// all reads pull committed bytes from disk through a JournalReader.
type Shipper struct {
	cfg   Config
	store *statestore.Store
	peers []*peer
}

type peer struct {
	addr string

	mu       sync.Mutex
	state    string
	conn     net.Conn // live session conn, for Status/teardown
	sent     statestore.Cursor
	acked    statestore.Cursor
	lastAck  time.Time
	reconn   uint64
	resyncs  uint64
	snaps    uint64
	records  uint64
	lastErr  string
	everConn bool
}

// NewShipper builds a shipper over the store. Call Run to start.
func NewShipper(store *statestore.Store, cfg Config) *Shipper {
	cfg = cfg.withDefaults()
	s := &Shipper{cfg: cfg, store: store}
	for _, addr := range cfg.Peers {
		s.peers = append(s.peers, &peer{addr: addr, state: "dialing"})
	}
	return s
}

// Run replicates until ctx is cancelled, redialing failed sessions
// forever. It blocks; run it in a goroutine.
func (s *Shipper) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range s.peers {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.runPeer(ctx, p)
		}()
	}
	wg.Wait()
}

// Status snapshots every peer's replication state.
func (s *Shipper) Status() []PeerStatus {
	committed := s.store.Committed()
	now := time.Now() //tagwatch:allow-wallclock replication lag is a wall-clock observable, not sim state
	out := make([]PeerStatus, 0, len(s.peers))
	for _, p := range s.peers {
		p.mu.Lock()
		ps := PeerStatus{
			Addr:         p.addr,
			State:        p.state,
			Connected:    p.conn != nil,
			Sent:         p.sent,
			Acked:        p.acked,
			LagBytes:     -1,
			LastAckAgeMS: -1,
			Reconnects:   p.reconn,
			Resyncs:      p.resyncs,
			Snapshots:    p.snaps,
			Records:      p.records,
			LastError:    p.lastErr,
		}
		if p.acked.Gen == committed.Gen {
			ps.LagBytes = committed.Offset - p.acked.Offset
		}
		if !p.lastAck.IsZero() {
			ps.LastAckAgeMS = now.Sub(p.lastAck).Milliseconds()
		}
		p.mu.Unlock()
		out = append(out, ps)
	}
	return out
}

// Synced reports whether every peer has acked the store's committed
// cursor. Trivially true with no peers.
func (s *Shipper) Synced() bool {
	committed := s.store.Committed()
	for _, p := range s.peers {
		p.mu.Lock()
		ok := p.conn != nil && p.acked == committed
		p.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// WaitSynced blocks until Synced or ctx ends — the quiesce point a
// planned failover (or the drill) uses to empty the in-flight window.
func (s *Shipper) WaitSynced(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond) //tagwatch:allow-wallclock quiesce poll over a real TCP link
	defer tick.Stop()
	for {
		if s.Synced() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replication: wait synced: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// runPeer is one peer's dial/session/backoff loop.
func (s *Shipper) runPeer(ctx context.Context, p *peer) {
	// Jitter stream seeded per peer identity so two peers never share a
	// backoff schedule (replication is wall-clock land; determinism in
	// tests comes from the chaos injector, not from backoff timing).
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s", s.cfg.PrimaryID, p.addr)
	rng := mrand.New(mrand.NewSource(int64(h.Sum64())))
	failures := 0
	for ctx.Err() == nil {
		p.setState("dialing")
		conn, err := s.dial(ctx, p.addr)
		if err == nil {
			p.connected(conn)
			err = s.session(ctx, p, conn)
			conn.Close()
			p.disconnected(err)
		} else {
			p.failed(err)
		}
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			failures = 0
			continue
		}
		failures++
		p.setState("backoff")
		delay := guard.Jitter(guard.Backoff(s.cfg.BackoffBase, s.cfg.BackoffMax, failures), rng.Float64())
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay): //tagwatch:allow-wallclock redial backoff paces a real socket (jitter is already seeded)
		}
	}
}

func (s *Shipper) dial(ctx context.Context, addr string) (net.Conn, error) {
	dctx, cancel := context.WithTimeout(ctx, s.cfg.DialTimeout)
	defer cancel()
	if s.cfg.Dial != nil {
		return s.cfg.Dial(dctx, addr)
	}
	var d net.Dialer
	return d.DialContext(dctx, "tcp", addr)
}

// session runs one connected replication session: hello/cursor
// negotiation, then stream batches + heartbeats until the link or ctx
// dies. The returned error is nil only on ctx cancellation.
func (s *Shipper) session(ctx context.Context, p *peer, conn net.Conn) error {
	if err := writeJSONFrame(conn, s.cfg.FrameTimeout, fHello, helloPayload{
		Version: protocolVersion,
		Primary: s.cfg.PrimaryID,
	}); err != nil {
		return fmt.Errorf("replication: send hello: %w", err)
	}
	typ, payload, err := readFrame(conn, s.cfg.FrameTimeout)
	if err != nil {
		return fmt.Errorf("replication: read cursor: %w", err)
	}
	if typ != fCursor {
		return fmt.Errorf("replication: expected cursor frame, got type %d", typ)
	}
	var cur cursorPayload
	if err := json.Unmarshal(payload, &cur); err != nil {
		return fmt.Errorf("replication: decode cursor: %w", err)
	}

	var reader *statestore.JournalReader
	defer func() {
		if reader != nil {
			reader.Close()
		}
	}()
	if cur.Reset || cur.Primary != s.cfg.PrimaryID {
		reader, err = s.resync(p, conn)
	} else {
		// Resume optimistically from the standby's cursor; if retention
		// GC already collected it, the first Poll reports ErrCursorGone
		// and the stream re-anchors below.
		from := statestore.Cursor{Gen: cur.Gen, Offset: cur.Offset}
		reader = s.store.Tail(from, statestore.TailOptions{MaxBatchBytes: s.cfg.MaxBatchBytes})
		p.advanceSent(from)
		p.setState("streaming")
	}
	if err != nil {
		return err
	}

	// Ack reader: drains standby→primary frames, updating the applied
	// cursor. Its failure (or silence past AckTimeout) closes the conn,
	// which unblocks any in-flight write and ends the session.
	ackErr := make(chan error, 1)
	//tagwatch:allow-leak the read loop's shutdown signal is the conn itself: session defers conn.Close, which fails the blocking readFrame
	go func() {
		for {
			typ, payload, err := readFrame(conn, s.cfg.AckTimeout)
			if err != nil {
				ackErr <- err
				return
			}
			if typ != fAck {
				ackErr <- fmt.Errorf("replication: unexpected frame type %d from standby", typ)
				return
			}
			c, err := decodeCursor(payload)
			if err != nil {
				ackErr <- err
				return
			}
			p.ackedThrough(c)
		}
	}()
	defer conn.Close() // ensure the ack goroutine unblocks on any exit path

	heartbeat := time.NewTicker(s.cfg.Heartbeat) //tagwatch:allow-wallclock liveness heartbeat over a real TCP link
	defer heartbeat.Stop()
	for {
		// Drain everything committed, in bounded frames.
		for {
			from := reader.Cursor()
			records, next, err := reader.Poll()
			if errors.Is(err, statestore.ErrCursorGone) {
				reader.Close()
				reader, err = s.resync(p, conn)
				if err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("replication: tail journal: %w", err)
			}
			// A poll that only crossed into a new, still empty generation
			// (a snapshot rolled the journal) ships an empty batch all the
			// same: the standby must apply and ack the new cursor, or a
			// primary that goes quiet after a snapshot never reads synced.
			if len(records) == 0 && next == from {
				break
			}
			if err := writeFrame(conn, s.cfg.FrameTimeout, fRecords, encodeRecords(next, records)); err != nil {
				return fmt.Errorf("replication: send records: %w", err)
			}
			p.sentRecords(next, len(records))
		}
		select {
		case <-ctx.Done():
			return nil
		case err := <-ackErr:
			return fmt.Errorf("replication: ack stream: %w", err)
		case <-reader.Notify():
		case <-heartbeat.C:
			if err := writeFrame(conn, s.cfg.FrameTimeout, fHeartbeat, encodeCursor(s.store.Committed())); err != nil {
				return fmt.Errorf("replication: send heartbeat: %w", err)
			}
		}
	}
}

// resync re-anchors the standby: ship the newest snapshot (or a reset
// when the primary has none) and tail from its cursor.
func (s *Shipper) resync(p *peer, conn net.Conn) (*statestore.JournalReader, error) {
	p.setState("resync")
	snap, has, from, err := s.store.ResyncSource()
	if err != nil {
		return nil, fmt.Errorf("replication: resync source: %w", err)
	}
	if has {
		if err := writeFrame(conn, s.cfg.FrameTimeout, fSnapshot, encodeSnapshot(from.Gen, snap)); err != nil {
			return nil, fmt.Errorf("replication: send snapshot: %w", err)
		}
	} else {
		if err := writeFrame(conn, s.cfg.FrameTimeout, fReset, encodeCursor(from)); err != nil {
			return nil, fmt.Errorf("replication: send reset: %w", err)
		}
	}
	p.resynced(from, has)
	p.setState("streaming")
	return s.store.Tail(from, statestore.TailOptions{MaxBatchBytes: s.cfg.MaxBatchBytes}), nil
}

func (p *peer) setState(state string) {
	p.mu.Lock()
	p.state = state
	p.mu.Unlock()
}

func (p *peer) connected(conn net.Conn) {
	p.mu.Lock()
	p.conn = conn
	if p.everConn {
		p.reconn++
	}
	p.everConn = true
	// A new session negotiates from scratch; prior ack state is void.
	p.sent = statestore.Cursor{}
	p.acked = statestore.Cursor{}
	p.lastAck = time.Time{}
	p.mu.Unlock()
}

func (p *peer) disconnected(err error) {
	p.mu.Lock()
	p.conn = nil
	if err != nil {
		p.lastErr = err.Error()
	}
	p.mu.Unlock()
}

func (p *peer) failed(err error) {
	p.mu.Lock()
	p.lastErr = err.Error()
	p.mu.Unlock()
}

func (p *peer) advanceSent(c statestore.Cursor) {
	p.mu.Lock()
	p.sent = c
	// Resuming means the standby already applied through the cursor.
	p.acked = c
	p.lastAck = time.Now() //tagwatch:allow-wallclock ack age is a wall-clock observable, not sim state
	p.mu.Unlock()
}

func (p *peer) sentRecords(end statestore.Cursor, n int) {
	p.mu.Lock()
	p.sent = end
	p.records += uint64(n)
	p.mu.Unlock()
}

func (p *peer) resynced(from statestore.Cursor, snapshot bool) {
	p.mu.Lock()
	p.resyncs++
	if snapshot {
		p.snaps++
	}
	p.sent = from
	p.acked = statestore.Cursor{}
	p.mu.Unlock()
}

func (p *peer) ackedThrough(c statestore.Cursor) {
	p.mu.Lock()
	if p.acked.Before(c) {
		p.acked = c
	}
	p.lastAck = time.Now() //tagwatch:allow-wallclock ack age is a wall-clock observable, not sim state
	p.mu.Unlock()
}
