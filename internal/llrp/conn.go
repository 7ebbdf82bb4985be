package llrp

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("llrp: connection closed")

// ErrKeepaliveTimeout is the watchdog's terminal error: the reader went
// silent for longer than the armed window. Supervisors match it with
// errors.Is to distinguish a half-open link from a clean close or a
// decode failure.
var ErrKeepaliveTimeout = errors.New("llrp: keepalive watchdog expired")

// DefaultOpTimeout bounds each request/response exchange when the
// caller's context carries no tighter deadline. LLRP control operations
// complete in milliseconds on a healthy link; anything near this bound
// means the link is gone, not slow.
const DefaultOpTimeout = 10 * time.Second

// Conn is the client side of an LLRP connection — what Tagwatch uses in
// place of the ImpinJ LTK. It owns the socket: a background goroutine
// reads frames, matches responses to requests by message ID, auto-acks
// keepalives, and fans tag reports and reader events out to channels.
type Conn struct {
	conn net.Conn
	br   *bufio.Reader

	writeMu sync.Mutex
	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan Message
	err     error
	closed  chan struct{}
	once    sync.Once

	reports chan []TagReportData
	events  chan ReaderEvent

	// opTimeout is the per-operation deadline (nanoseconds; atomic so
	// SetOpTimeout races cleanly with in-flight operations).
	opTimeout atomic.Int64
	// lastRx is the UnixNano stamp of the last complete inbound frame —
	// the watchdog's evidence of life. Any frame counts, not just
	// keepalives: a reader streaming reports is alive even if its
	// keepalive ticker falls behind.
	lastRx atomic.Int64
}

// Dial connects to an LLRP reader (real or emulated) and waits for the
// mandatory connection-attempt event that opens every LLRP session.
func Dial(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("llrp: dial %s: %w", addr, err)
	}
	c := newConn(nc)
	select {
	case ev := <-c.events:
		if ev.ConnAttempt == nil || *ev.ConnAttempt != ConnSuccess {
			c.Close()
			return nil, fmt.Errorf("llrp: reader refused connection: %+v", ev.ConnAttempt)
		}
	case <-ctx.Done():
		c.Close()
		return nil, ctx.Err()
	case <-c.closed:
		return nil, c.readError()
	}
	return c, nil
}

// newConn wraps an established socket and starts the read loop. Exported
// via Dial; the server uses its own loop.
func newConn(nc net.Conn) *Conn {
	c := &Conn{
		conn:    nc,
		br:      bufio.NewReaderSize(nc, 64<<10),
		pending: make(map[uint32]chan Message),
		closed:  make(chan struct{}),
		reports: make(chan []TagReportData, 256),
		events:  make(chan ReaderEvent, 16),
	}
	c.opTimeout.Store(int64(DefaultOpTimeout))
	c.lastRx.Store(time.Now().UnixNano())
	go c.readLoop()
	return c
}

// SetOpTimeout overrides the per-operation deadline applied to every
// request/response exchange (and to socket writes, so a blackholed link
// with a full kernel buffer cannot wedge a sender). Non-positive
// disables the bound.
func (c *Conn) SetOpTimeout(d time.Duration) { c.opTimeout.Store(int64(d)) }

// Watchdog arms a liveness monitor: if no complete frame arrives within
// the window, the connection dies with ErrKeepaliveTimeout — Done fires
// and Err reports the distinguishable cause. Pair it with SetKeepalive
// so a quiet-but-healthy reader still produces inbound traffic; see
// StartKeepalive for the combined call.
func (c *Conn) Watchdog(window time.Duration) {
	if window <= 0 {
		return
	}
	c.lastRx.Store(time.Now().UnixNano())
	go func() {
		tick := window / 4
		if tick < 5*time.Millisecond {
			tick = 5 * time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-c.closed:
				return
			case <-t.C:
				silent := time.Since(time.Unix(0, c.lastRx.Load()))
				if silent > window {
					c.setErr(fmt.Errorf("%w: reader silent %v (window %v)",
						ErrKeepaliveTimeout, silent.Round(time.Millisecond), window))
					c.Close()
					return
				}
			}
		}
	}()
}

// StartKeepalive asks the reader for periodic KEEPALIVE messages and
// arms the watchdog to fire after `misses` missed periods (minimum 2).
// This is the production liveness contract: a dead or half-open link is
// detected within misses×period instead of looking like an empty RF
// field forever.
func (c *Conn) StartKeepalive(ctx context.Context, period time.Duration, misses int) error {
	if period <= 0 {
		return fmt.Errorf("llrp: keepalive period %v must be positive", period)
	}
	if err := c.SetKeepalive(ctx, period); err != nil {
		return err
	}
	if misses < 2 {
		misses = 2
	}
	c.Watchdog(time.Duration(misses) * period)
	return nil
}

// Reports returns the stream of tag reports from RO_ACCESS_REPORT
// messages. The channel is closed when the connection dies.
func (c *Conn) Reports() <-chan []TagReportData { return c.reports }

// Events returns reader event notifications (after the initial connection
// event consumed by Dial).
func (c *Conn) Events() <-chan ReaderEvent { return c.events }

// Done returns a channel that is closed when the connection dies, whether
// by Close, a read error, or the peer going away. Supervisors select on it
// to trigger reconnects.
func (c *Conn) Done() <-chan struct{} { return c.closed }

// Err reports why the connection died: nil while it is still alive, the
// terminating read/decode error after a failure, or ErrClosed after a
// clean local Close.
func (c *Conn) Err() error {
	select {
	case <-c.closed:
		return c.readError()
	default:
		return nil
	}
}

// Close tears the connection down. It is safe to call multiple times.
func (c *Conn) Close() error {
	c.once.Do(func() {
		close(c.closed)
		c.conn.Close()
	})
	return nil
}

func (c *Conn) readError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

// readLoop pulls frames off the socket until it dies.
func (c *Conn) readLoop() {
	defer func() {
		c.mu.Lock()
		for id, ch := range c.pending {
			close(ch)
			delete(c.pending, id)
		}
		c.mu.Unlock()
		close(c.reports)
		close(c.events)
		c.Close()
	}()
	hdr := make([]byte, headerSize)
	for {
		if _, err := io.ReadFull(c.br, hdr); err != nil {
			c.setErr(err)
			return
		}
		length := int(binary.BigEndian.Uint32(hdr[2:]))
		if length < headerSize || length > maxFrameLen {
			c.setErr(fmt.Errorf("llrp: insane frame length %d", length))
			return
		}
		frame := make([]byte, length)
		copy(frame, hdr)
		if _, err := io.ReadFull(c.br, frame[headerSize:]); err != nil {
			c.setErr(err)
			return
		}
		msg, _, err := DecodeFrame(frame)
		if err != nil {
			c.setErr(err)
			return
		}
		c.lastRx.Store(time.Now().UnixNano())
		c.dispatch(msg)
	}
}

func (c *Conn) setErr(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *Conn) dispatch(msg Message) {
	switch msg.Type {
	case MsgROAccessReport:
		reports, err := DecodeROAccessReport(msg)
		if err != nil || len(reports) == 0 {
			return
		}
		select {
		case c.reports <- reports:
		case <-c.closed:
		}
	case MsgKeepalive:
		// Auto-acknowledge; failure here will surface on the next write.
		_ = c.send(NewKeepaliveAck(msg.ID))
	case MsgReaderEventNotification:
		ev, err := DecodeReaderEventNotification(msg)
		if err != nil {
			return
		}
		select {
		case c.events <- ev:
		case <-c.closed:
		default: // drop events rather than block the read loop
		}
	default:
		c.mu.Lock()
		ch, ok := c.pending[msg.ID]
		if ok {
			delete(c.pending, msg.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- msg
			close(ch)
		}
	}
}

// send writes one frame under the per-operation write deadline, so a
// blackholed socket with a full kernel buffer fails the operation
// instead of wedging every sender behind writeMu.
func (c *Conn) send(m Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	select {
	case <-c.closed:
		return c.readError()
	default:
	}
	// Arm the deadline unconditionally: the zero time means "no
	// deadline" and clears whatever a previous operation left armed, so
	// the no-timeout configuration can never inherit a stale deadline.
	var dl time.Time
	if d := time.Duration(c.opTimeout.Load()); d > 0 {
		dl = time.Now().Add(d)
	}
	if err := c.conn.SetWriteDeadline(dl); err != nil {
		return err
	}
	// Holding writeMu across the socket write is the point of this
	// mutex — frames must not interleave — and the block is bounded by
	// the write deadline armed above.
	_, err := c.conn.Write(m.EncodeFrame()) //tagwatch:allow-locked-send serialised frame write, bounded by SetWriteDeadline
	return err
}

// roundTrip sends a request and waits for its matching response, under
// the per-operation deadline in addition to any deadline ctx carries.
func (c *Conn) roundTrip(ctx context.Context, m Message) (Message, error) {
	if d := time.Duration(c.opTimeout.Load()); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	wantType, hasResp := responseTypeFor(m.Type)
	c.mu.Lock()
	c.nextID++
	m.ID = c.nextID
	ch := make(chan Message, 1)
	if hasResp {
		c.pending[m.ID] = ch
	}
	c.mu.Unlock()

	// unregister removes the waiter; every exit path that did not consume
	// the response runs it, so an abandoned ID can never match a late
	// reply against a different caller.
	unregister := func() {
		c.mu.Lock()
		delete(c.pending, m.ID)
		c.mu.Unlock()
	}

	if err := c.send(m); err != nil {
		unregister()
		return Message{}, fmt.Errorf("llrp: send type %d: %w", m.Type, err)
	}
	if !hasResp {
		return Message{}, nil
	}
	var resp Message
	var ok bool
	select {
	case resp, ok = <-ch:
	case <-ctx.Done():
		unregister()
		return Message{}, ctx.Err()
	case <-c.closed:
		// A reader may answer and hang up at once (CLOSE_CONNECTION), so
		// the response can already wait in ch when closed fires; select
		// picks among ready cases at random, so take it if it is there.
		select {
		case resp, ok = <-ch:
		default:
		}
	}
	if !ok {
		return Message{}, c.readError()
	}
	if resp.Type != wantType && resp.Type != MsgErrorMessage {
		return resp, fmt.Errorf("llrp: response type %d to request %d, want %d", resp.Type, m.Type, wantType)
	}
	return resp, nil
}

// statusOp performs a request whose response carries only an LLRPStatus,
// converting failure statuses into errors.
func (c *Conn) statusOp(ctx context.Context, m Message) error {
	resp, err := c.roundTrip(ctx, m)
	if err != nil {
		return err
	}
	st, err := DecodeStatus(resp)
	if err != nil {
		return err
	}
	if !st.OK() {
		return st
	}
	return nil
}

// GetCapabilities queries the reader's capabilities.
func (c *Conn) GetCapabilities(ctx context.Context) (Capabilities, error) {
	resp, err := c.roundTrip(ctx, Message{Type: MsgGetReaderCapabilities})
	if err != nil {
		return Capabilities{}, err
	}
	if st, err := DecodeStatus(resp); err == nil && !st.OK() {
		return Capabilities{}, st
	}
	return DecodeGetReaderCapabilitiesResponse(resp)
}

// SetKeepalive asks the reader to send periodic KEEPALIVE messages (the
// connection auto-acks them); a non-positive period disables them.
func (c *Conn) SetKeepalive(ctx context.Context, period time.Duration) error {
	spec := &KeepaliveSpec{Periodic: period > 0, Period: period}
	return c.statusOp(ctx, NewSetReaderConfig(0, spec))
}

// AddROSpec installs an ROSpec on the reader.
func (c *Conn) AddROSpec(ctx context.Context, spec ROSpec) error {
	return c.statusOp(ctx, NewAddROSpec(0, spec))
}

// EnableROSpec enables an installed ROSpec.
func (c *Conn) EnableROSpec(ctx context.Context, id uint32) error {
	return c.statusOp(ctx, NewROSpecOp(MsgEnableROSpec, 0, id))
}

// StartROSpec starts an enabled ROSpec.
func (c *Conn) StartROSpec(ctx context.Context, id uint32) error {
	return c.statusOp(ctx, NewROSpecOp(MsgStartROSpec, 0, id))
}

// StopROSpec stops a running ROSpec.
func (c *Conn) StopROSpec(ctx context.Context, id uint32) error {
	return c.statusOp(ctx, NewROSpecOp(MsgStopROSpec, 0, id))
}

// DeleteROSpec removes an ROSpec (0 deletes all).
func (c *Conn) DeleteROSpec(ctx context.Context, id uint32) error {
	return c.statusOp(ctx, NewROSpecOp(MsgDeleteROSpec, 0, id))
}

// CloseConnection performs the orderly LLRP shutdown and closes the
// socket.
func (c *Conn) CloseConnection(ctx context.Context) error {
	err := c.statusOp(ctx, NewCloseConnection(0))
	c.Close()
	return err
}

// WaitClosed blocks until the connection dies or the timeout elapses.
func (c *Conn) WaitClosed(d time.Duration) bool {
	select {
	case <-c.closed:
		return true
	case <-time.After(d):
		return false
	}
}
