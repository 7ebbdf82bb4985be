package edge

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"tagwatch/internal/fleet"
)

// ClientStatus snapshots the upstream link's convergence accounting.
type ClientStatus struct {
	Upstream  string `json:"upstream"`
	Connected bool   `json:"connected"`
	// Identity/Cursor form the resume cursor: the last contiguously
	// applied position in the upstream's sequence space.
	Identity string `json:"identity"`
	Cursor   uint64 `json:"cursor"`
	// Sessions counts established upstream streams; Frames counts SSE
	// frames applied across all of them.
	Sessions uint64 `json:"sessions"`
	Frames   uint64 `json:"frames"`
	// Resets counts full-state re-anchors received; IdentityChanges how
	// many of those crossed into a new primary's sequence space (a
	// failover or restart upstream).
	Resets          uint64 `json:"resets"`
	IdentityChanges uint64 `json:"identity_changes"`
	// Gaps counts loss intervals upstream announced to us; each severs
	// the session and resolves on reconnect as either GapsHealed (ring
	// replay recovered the hole) or GapsReset (fell off the ring, full
	// re-anchor).
	Gaps       uint64 `json:"gaps"`
	GapsHealed uint64 `json:"gaps_healed"`
	GapsReset  uint64 `json:"gaps_reset"`
	// ContiguityViolations counts frames that arrived with a sequence
	// hole NOT covered by a gap announcement — upstream breaking its
	// own bounded-loss promise. Zero in any correct deployment; the
	// gauntlet oracle asserts it.
	ContiguityViolations uint64 `json:"contiguity_violations"`
	// StalenessMS is milliseconds since the last upstream frame
	// (-1 before any frame has ever arrived).
	StalenessMS int64 `json:"staleness_ms"`
	// Tags is the mirror population.
	Tags int `json:"tags"`
}

// Client maintains the upstream SSE subscription and the local mirror.
// Run drives a dial/stream/backoff loop until its context ends; the
// mirror and downstream bus stay serveable the whole time — including
// while upstream is unreachable (the degraded-not-dead contract).
type Client struct {
	cfg  Config
	down *fleet.Bus
	rng  *rand.Rand // jitter; guarded by mu

	mu        sync.Mutex
	mirror    *mirror
	identity  string
	cursor    uint64
	connected bool
	lastFrame time.Time
	// gapPending is set between "upstream announced a gap, we severed"
	// and the next session's first anchor, which classifies the recovery
	// (replay → healed, reset → reset).
	gapPending bool

	sessions        uint64
	frames          uint64
	resets          uint64
	identityChanges uint64
	gaps            uint64
	gapsHealed      uint64
	gapsReset       uint64
	contiguityViols uint64
}

// NewClient builds a client with its own downstream bus (fresh
// identity, downstream ring). Call Run to start following upstream.
func NewClient(cfg Config) *Client {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		h := fnv.New64a()
		fmt.Fprintf(h, "edge|%s", cfg.Upstream)
		seed = int64(h.Sum64())
	}
	down := fleet.NewBus()
	down.SetRingCap(cfg.EventRingCap)
	down.SetSubscriberLimit(cfg.MaxSSEClients)
	return &Client{
		cfg:    cfg,
		down:   down,
		rng:    rand.New(rand.NewSource(seed)),
		mirror: newMirror(),
	}
}

// Bus exposes the downstream event bus (re-stamped sequence space, own
// identity) that the edge Server streams to its clients.
func (c *Client) Bus() *fleet.Bus { return c.down }

// Snapshot returns the mirror sorted by EPC — byte-identical in shape
// to fleet.Registry.Snapshot, so the same fingerprint function applies.
func (c *Client) Snapshot() []fleet.TagState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mirror.snapshot()
}

// Cursor reports the last contiguously applied upstream position.
func (c *Client) Cursor() (identity string, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.identity, c.cursor
}

// Status snapshots the link accounting.
func (c *Client) Status() ClientStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	staleness := int64(-1)
	if !c.lastFrame.IsZero() {
		staleness = time.Since(c.lastFrame).Milliseconds()
	}
	return ClientStatus{
		Upstream:             c.cfg.Upstream,
		Connected:            c.connected,
		Identity:             c.identity,
		Cursor:               c.cursor,
		Sessions:             c.sessions,
		Frames:               c.frames,
		Resets:               c.resets,
		IdentityChanges:      c.identityChanges,
		Gaps:                 c.gaps,
		GapsHealed:           c.gapsHealed,
		GapsReset:            c.gapsReset,
		ContiguityViolations: c.contiguityViols,
		StalenessMS:          staleness,
		Tags:                 len(c.mirror.tags),
	}
}

// Stale reports whether the mirror's freshness has fallen past the
// configured staleness bound (true also before any frame ever arrived).
func (c *Client) Stale() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastFrame.IsZero() || time.Since(c.lastFrame) > c.cfg.StaleAfter
}

// Run follows upstream until ctx is cancelled: dial, stream, and on any
// session error back off (exponential, jittered) and reconnect with the
// current cursor. It returns ctx.Err() at shutdown — the loop itself
// never gives up, because a dead upstream is a condition the edge
// outlives, not an error it propagates.
func (c *Client) Run(ctx context.Context) error {
	failures := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		err := c.session(ctx)
		c.mu.Lock()
		c.connected = false
		c.mu.Unlock()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, errResync) {
			// Deliberate severance (gap announced): reconnect immediately —
			// the ring is draining while we wait.
			failures = 0
			c.logf("edge: resync against %s: reconnecting", c.cfg.Upstream)
			continue
		}
		failures++
		delay := c.backoff(failures)
		c.logf("edge: upstream %s: %v (retry %d in %s)", c.cfg.Upstream, err, failures, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// errResync is the session's deliberate self-severance: upstream
// announced a gap, and the recovery path is a fresh subscription from
// the last contiguous cursor.
var errResync = errors.New("edge: resync requested")

func (c *Client) backoff(failures int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 1; i < failures && d < c.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	c.mu.Lock()
	jitter := 0.8 + 0.4*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	if c.cfg.Dial != nil {
		dctx, cancel := context.WithTimeout(ctx, c.cfg.DialTimeout)
		defer cancel()
		return c.cfg.Dial(dctx, c.cfg.Upstream)
	}
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	return d.DialContext(ctx, "tcp", c.cfg.Upstream)
}

// session runs one upstream subscription: request, response head, then
// the frame loop over the body. Every conn operation runs under a
// deadline — the upstream link is exactly the flaky-network surface the
// conndeadline analyzer polices — so a half-open TCP session surfaces
// as a timeout, never a wedged goroutine.
func (c *Client) session(ctx context.Context) error {
	conn, err := c.dial(ctx)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	// A context cancellation must unblock any in-flight conn I/O: force
	// the pending operation to fail now instead of at its deadline.
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Now())
	})
	defer stop()

	c.mu.Lock()
	identity, cursor := c.identity, c.cursor
	c.mu.Unlock()

	var req strings.Builder
	fmt.Fprintf(&req, "GET /api/events HTTP/1.1\r\nHost: %s\r\nAccept: text/event-stream\r\nConnection: keep-alive\r\n", c.cfg.Upstream)
	if identity != "" {
		fmt.Fprintf(&req, "Last-Event-ID: %s\r\n", fleet.FormatCursor(identity, cursor))
	}
	req.WriteString("\r\n")
	conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	if _, err := conn.Write([]byte(req.String())); err != nil {
		return fmt.Errorf("request: %w", err)
	}

	conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
	// The body is the event stream, de-chunked: chunk boundaries need not
	// fall between frames (a re-chunking proxy, coalesced writes). It is
	// never closed, as that would drain it; closing conn ends it.
	resp, err := http.ReadResponse(bufio.NewReaderSize(conn, 64<<10), nil)
	if err != nil {
		return fmt.Errorf("response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upstream refused stream: %q", resp.Status)
	}

	c.mu.Lock()
	c.sessions++
	c.connected = true
	c.mu.Unlock()
	c.logf("edge: streaming from %s (cursor %s:%d)", c.cfg.Upstream, identity, cursor)

	return c.frameLoop(ctx, conn, bufio.NewReader(resp.Body))
}

// frameLoop reads SSE frames from the response body until the stream
// dies or a gap forces a resync. The body reads from conn, so the read
// deadline armed before each line bounds it.
func (c *Client) frameLoop(ctx context.Context, conn net.Conn, br *bufio.Reader) error {
	var id, event string
	var data []byte
	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
		// A cancellation that landed while the previous frame was handled
		// had its forced deadline overwritten just now; catch it here, or
		// it stays lost for as long as upstream keeps sending.
		if err := ctx.Err(); err != nil {
			return err
		}
		line, err := br.ReadString('\n')
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("stream: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if event != "" || len(data) > 0 {
				err := c.applyFrame(id, event, data)
				id, event, data = "", "", nil
				if err != nil {
					return err
				}
			}
		case strings.HasPrefix(line, ":"):
			// Keepalive comment: freshness signal, nothing to apply.
			c.touch()
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		}
	}
}

func (c *Client) touch() {
	c.mu.Lock()
	c.lastFrame = time.Now()
	c.mu.Unlock()
}

// applyFrame dispatches one complete SSE frame. It returns errResync
// when the session must be severed and re-anchored (gap announced,
// identity changed mid-stream).
func (c *Client) applyFrame(id, event string, data []byte) error {
	frameIdentity, frameSeq, okID := fleet.ParseCursor(id)
	if !okID {
		// The stream preamble and malformed frames carry no cursor;
		// nothing to apply.
		return nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastFrame = time.Now()
	c.frames++

	if event == string(fleet.EventReset) {
		var payload fleet.ResetPayload
		if err := json.Unmarshal(data, &payload); err != nil {
			return fmt.Errorf("reset payload: %w", err)
		}
		if c.identity != "" && payload.Identity != c.identity {
			c.identityChanges++
		}
		if c.gapPending {
			c.gapPending = false
			c.gapsReset++
		}
		c.resets++
		c.adoptResetLocked(payload)
		return nil
	}

	// Any non-reset frame from a different identity mid-stream means the
	// server we are talking to changed sequence spaces under us (or we
	// resumed into a stream we cannot interpret): drop the cursor so the
	// reconnect is answered with a clean reset.
	if c.identity != "" && frameIdentity != c.identity {
		c.identityChanges++
		c.identity, c.cursor = "", 0
		return errResync
	}
	if c.identity == "" {
		// First contact without a reset (upstream replayed for a cursor
		// we didn't send) cannot be interpreted against an empty mirror.
		return errResync
	}

	if frameSeq <= c.cursor {
		return nil // replay overlap with what we already hold
	}

	if event == string(fleet.EventGap) {
		// Upstream announced a loss interval. Honest but unacceptable
		// for a mirror: sever and re-subscribe from the last contiguous
		// cursor — the ring usually still covers the hole (our
		// subscriber buffer overflowed, not the ring) and the replay
		// heals it.
		c.gaps++
		c.gapPending = true
		return errResync
	}

	if frameSeq != c.cursor+1 {
		// A hole with no gap announcement: upstream broke the
		// bounded-loss promise. Count it (the oracle asserts zero), then
		// resync rather than silently absorb it.
		c.contiguityViols++
		c.gapPending = true
		return errResync
	}

	if c.gapPending {
		// Contiguous continuation after a gap severance: the ring replay
		// covered the hole.
		c.gapPending = false
		c.gapsHealed++
	}

	var ev fleet.Event
	if err := json.Unmarshal(data, &ev); err != nil {
		return fmt.Errorf("event payload: %w", err)
	}
	c.cursor = frameSeq
	c.applyEventLocked(ev)
	return nil
}

// adoptResetLocked replaces the mirror with the reset snapshot and
// republishes the difference downstream as tag/tag_drop deltas — so
// downstream clients ride through an upstream failover without needing
// a reset of their own.
func (c *Client) adoptResetLocked(payload fleet.ResetPayload) {
	old := c.mirror
	c.mirror = newMirror()
	for _, st := range payload.Tags {
		c.mirror.tags[st.EPC] = st
	}
	c.identity = payload.Identity
	c.cursor = payload.Cursor

	now := time.Now()
	for epc, st := range c.mirror.tags {
		prev, had := old.tags[epc]
		if !had || !sameTagState(prev, st) {
			st := st
			c.down.Publish(fleet.Event{Type: fleet.EventTag, Reader: st.Reader, At: now, EPC: st.EPC, Tag: &st})
		}
	}
	for epc := range old.tags {
		if _, still := c.mirror.tags[epc]; !still {
			c.down.Publish(fleet.Event{Type: fleet.EventTagDrop, At: now, EPC: epc})
		}
	}
}

// applyEventLocked folds one contiguous upstream event into the mirror
// and republishes it downstream (the downstream bus re-stamps Seq in
// its own sequence space).
func (c *Client) applyEventLocked(ev fleet.Event) {
	switch ev.Type {
	case fleet.EventTag:
		if ev.Tag != nil {
			c.mirror.tags[ev.Tag.EPC] = *ev.Tag
		}
	case fleet.EventTagDrop:
		delete(c.mirror.tags, ev.EPC)
	}
	c.down.Publish(ev)
}

// sameTagState compares two tag images for the reset diff. Reads and
// LastSeen advance on every observation, so comparing the cheap scalar
// fields catches effectively every real change.
func sameTagState(a, b fleet.TagState) bool {
	if a.EPC != b.EPC || a.Reader != b.Reader || a.Antenna != b.Antenna ||
		!a.LastSeen.Equal(b.LastSeen) || a.DeviceTime != b.DeviceTime ||
		a.Reads != b.Reads || a.Mobile != b.Mobile || a.IRR != b.IRR ||
		a.Handoffs != b.Handoffs || len(a.Readers) != len(b.Readers) {
		return false
	}
	for k, v := range a.Readers {
		if b.Readers[k] != v {
			return false
		}
	}
	return true
}
