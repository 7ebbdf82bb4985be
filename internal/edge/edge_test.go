package edge

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagwatch/internal/chaos"
	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/fleet"
	"tagwatch/internal/replay"
)

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func testEPC(t *testing.T, i int) epc.EPC {
	t.Helper()
	pop, err := epc.SequentialPopulation([]byte{0x30, 0x1C, 0xA1}, uint32(i), 1, epc.StandardBits)
	if err != nil {
		t.Fatal(err)
	}
	return pop[0]
}

// upstreamManager builds an unstarted fleet manager tuned for fast edge
// tests (snappy heartbeats, a ring deep enough that replay always
// covers the test's event volume).
func upstreamManager(t *testing.T) *fleet.Manager {
	t.Helper()
	cfg := fleet.DefaultConfig()
	cfg.SSEHeartbeat = 100 * time.Millisecond
	cfg.SSEWriteTimeout = 2 * time.Second
	cfg.EventRingCap = 16384
	return fleet.New(cfg)
}

func edgeConfig(upstream string) Config {
	return Config{
		Upstream:     upstream,
		DialTimeout:  2 * time.Second,
		ReadTimeout:  2 * time.Second, // heartbeats arrive every 100ms
		WriteTimeout: 2 * time.Second,
		BackoffBase:  20 * time.Millisecond,
		BackoffMax:   200 * time.Millisecond,
		Seed:         42,
		StaleAfter:   time.Second,
		SSEHeartbeat: 100 * time.Millisecond,
	}
}

// fingerprintsMatch compares the upstream registry against the edge
// mirror via the shared snapshot fingerprint.
func fingerprintsMatch(t *testing.T, m *fleet.Manager, c *Client) bool {
	t.Helper()
	want, err := replay.RegistryFingerprint(m.Registry())
	if err != nil {
		t.Fatal(err)
	}
	got, err := replay.SnapshotFingerprint(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return want == got
}

// TestEdgeMirrorsFleetLive: the base contract — an edge following a
// healthy upstream converges its mirror to the exact registry state
// (fingerprint equality) through one reset plus contiguous deltas.
func TestEdgeMirrorsFleetLive(t *testing.T) {
	m := upstreamManager(t)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	client := NewClient(edgeConfig(ts.Listener.Addr().String()))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = client.Run(ctx) }()
	defer func() { cancel(); <-done }()

	now := time.Now()
	for i := 0; i < 50; i++ {
		m.Registry().Observe("r0", core.Reading{EPC: testEPC(t, i), Antenna: 1}, now.Add(time.Duration(i)*time.Millisecond))
	}
	m.Registry().UpdateAssessment("r0", testEPC(t, 3), true, 12.5)

	waitFor(t, 5*time.Second, "mirror to converge", func() bool {
		return fingerprintsMatch(t, m, client)
	})
	st := client.Status()
	if st.Resets != 1 {
		t.Fatalf("resets = %d, want exactly the initial anchor", st.Resets)
	}
	if st.ContiguityViolations != 0 || st.Gaps != 0 {
		t.Fatalf("clean link accounted loss: %+v", st)
	}
	if st.Tags != 50 {
		t.Fatalf("mirror tags = %d, want 50", st.Tags)
	}
}

// TestEdgeHealsThroughFlappingLink: a chaos link that severs the TCP
// session every few KB forces reconnect after reconnect; every one must
// resume via cursor replay, and the mirror must still converge to the
// exact upstream fingerprint with zero unannounced holes.
func TestEdgeHealsThroughFlappingLink(t *testing.T) {
	m := upstreamManager(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaos.Config{Seed: 7, FlapBytes: 16 << 10})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = m.Serve(ctx, inj.Listener(lis)) }()
	defer func() { cancel(); <-serveDone }()

	client := NewClient(edgeConfig(lis.Addr().String()))
	clientDone := make(chan struct{})
	go func() { defer close(clientDone); _ = client.Run(ctx) }()
	defer func() { cancel(); <-clientDone }()

	now := time.Now()
	for i := 0; i < 1500; i++ {
		m.Registry().Observe("r0", core.Reading{EPC: testEPC(t, i%60), Antenna: 1 + i%3}, now.Add(time.Duration(i)*time.Millisecond))
		if i%200 == 0 {
			time.Sleep(5 * time.Millisecond) // let sessions flap mid-stream
		}
	}

	waitFor(t, 15*time.Second, "mirror to converge through flaps", func() bool {
		return fingerprintsMatch(t, m, client)
	})
	st := client.Status()
	if st.Sessions < 2 {
		t.Fatalf("sessions = %d; the flap link should have severed at least once", st.Sessions)
	}
	if st.ContiguityViolations != 0 {
		t.Fatalf("unannounced holes: %+v", st)
	}
	if st.Gaps != st.GapsHealed+st.GapsReset {
		t.Fatalf("gap accounting doesn't balance: %+v", st)
	}
}

// TestEdgeFailoverIdentityReset: when the upstream is replaced by a new
// process (new bus identity — a promoted standby or a restart), the
// edge must detect the identity change and take a clean reset against
// the new sequence space instead of resuming into cursor confusion.
func TestEdgeFailoverIdentityReset(t *testing.T) {
	mA := upstreamManager(t)
	mB := upstreamManager(t)
	tsA := httptest.NewServer(mA.Handler())
	tsB := httptest.NewServer(mB.Handler())
	defer tsA.Close()
	defer tsB.Close()

	now := time.Now()
	for i := 0; i < 10; i++ {
		mA.Registry().Observe("rA", core.Reading{EPC: testEPC(t, i), Antenna: 1}, now)
	}
	for i := 5; i < 20; i++ {
		mB.Registry().Observe("rB", core.Reading{EPC: testEPC(t, i), Antenna: 2}, now.Add(time.Second))
	}

	// The dial hook routes "the upstream address" to whichever primary
	// is currently live — the failover switch.
	var target atomic.Value
	target.Store(tsA.Listener.Addr().String())
	cfg := edgeConfig("failover-virtual")
	cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		d := net.Dialer{Timeout: 2 * time.Second}
		return d.DialContext(ctx, "tcp", target.Load().(string))
	}
	client := NewClient(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = client.Run(ctx) }()
	defer func() { cancel(); <-done }()

	waitFor(t, 5*time.Second, "mirror to converge to primary A", func() bool {
		return fingerprintsMatch(t, mA, client)
	})
	identityA, _ := client.Cursor()
	if identityA != mA.Bus().Identity() {
		t.Fatalf("cursor identity %q, want A's %q", identityA, mA.Bus().Identity())
	}

	// Fail over: route to B and sever every connection to A.
	target.Store(tsB.Listener.Addr().String())
	tsA.CloseClientConnections()

	waitFor(t, 10*time.Second, "mirror to re-converge to primary B", func() bool {
		return fingerprintsMatch(t, mB, client)
	})
	st := client.Status()
	if st.Identity != mB.Bus().Identity() {
		t.Fatalf("cursor identity %q, want B's %q", st.Identity, mB.Bus().Identity())
	}
	if st.IdentityChanges < 1 {
		t.Fatalf("identity changes = %d, want >= 1 (the failover)", st.IdentityChanges)
	}
	if st.Resets < 2 {
		t.Fatalf("resets = %d, want the initial anchor plus the failover reset", st.Resets)
	}
	if st.ContiguityViolations != 0 {
		t.Fatalf("failover produced unannounced holes: %+v", st)
	}
}

// TestEdgeServesDownstream: the edge's own API — mirrored /api/tags
// with the staleness header, /healthz degraded-not-dead, and a
// downstream /api/events stream that opens with the same explicit
// reset anchor the upstream protocol uses.
func TestEdgeServesDownstream(t *testing.T) {
	m := upstreamManager(t)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	now := time.Now()
	for i := 0; i < 5; i++ {
		m.Registry().Observe("r0", core.Reading{EPC: testEPC(t, i), Antenna: 1}, now)
	}

	client := NewClient(edgeConfig(ts.Listener.Addr().String()))
	srv := NewServer(client)
	edgeTS := httptest.NewServer(srv.Handler())
	defer edgeTS.Close()

	// Before the client ever connects: still serving, honestly degraded.
	resp, err := http.Get(edgeTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want degraded-not-dead 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "degraded" {
		t.Fatalf("healthz before sync = %q, want degraded", hz.Status)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = client.Run(ctx) }()
	defer func() { cancel(); <-done }()

	waitFor(t, 5*time.Second, "mirror to converge", func() bool {
		return fingerprintsMatch(t, m, client)
	})

	resp, err = http.Get(edgeTS.URL + "/api/tags")
	if err != nil {
		t.Fatal(err)
	}
	staleness := resp.Header.Get("X-Tagwatch-Staleness-Ms")
	var tags struct {
		Count int              `json:"count"`
		Tags  []fleet.TagState `json:"tags"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tags); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tags.Count != 5 {
		t.Fatalf("mirrored tags = %d, want 5", tags.Count)
	}
	if staleness == "" || staleness == "-1" {
		t.Fatalf("staleness header = %q, want a fresh measurement", staleness)
	}

	resp, err = http.Get(edgeTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" {
		t.Fatalf("healthz after sync = %q, want ok", hz.Status)
	}

	// Downstream /api/events opens with a reset anchor carrying the
	// mirror, in the edge bus's own sequence space.
	req, err := http.NewRequest("GET", edgeTS.URL+"/api/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	frame := readOneFrame(t, br)
	if frame.event != string(fleet.EventReset) {
		t.Fatalf("downstream first frame %q, want reset", frame.event)
	}
	var payload fleet.ResetPayload
	if err := json.Unmarshal([]byte(frame.data), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Identity != client.Bus().Identity() {
		t.Fatalf("downstream reset identity %q, want the edge bus's %q", payload.Identity, client.Bus().Identity())
	}
	if len(payload.Tags) != 5 {
		t.Fatalf("downstream reset carries %d tags, want 5", len(payload.Tags))
	}
}

type rawFrame struct{ id, event, data string }

func readOneFrame(t *testing.T, br *bufio.Reader) rawFrame {
	t.Helper()
	done := make(chan rawFrame, 1)
	go func() {
		var f rawFrame
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				done <- f
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case line == "":
				if f.event != "" || f.data != "" {
					done <- f
					return
				}
			case strings.HasPrefix(line, "id: "):
				f.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	select {
	case f := <-done:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("timed out reading SSE frame")
		return rawFrame{}
	}
}

// TestEdgeGapAnnouncedAndRecovered drives the bus-shed path end to end:
// a tiny upstream subscriber buffer guarantees the edge's SSE channel
// overflows, upstream announces gaps, and the edge heals every one via
// cursor replay (or reset) — fingerprint equality proves no silent loss.
func TestEdgeGapAnnouncedAndRecovered(t *testing.T) {
	cfg := fleet.DefaultConfig()
	cfg.SSEHeartbeat = 100 * time.Millisecond
	cfg.SSEWriteTimeout = 2 * time.Second
	cfg.EventRingCap = 16384
	cfg.EventBuffer = 8 // overflow the per-subscriber channel fast
	m := fleet.New(cfg)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	client := NewClient(edgeConfig(ts.Listener.Addr().String()))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = client.Run(ctx) }()
	defer func() { cancel(); <-done }()

	waitFor(t, 5*time.Second, "initial anchor", func() bool {
		return client.Status().Resets >= 1
	})

	// Burst far past the subscriber buffer while the stream is live.
	now := time.Now()
	for i := 0; i < 800; i++ {
		m.Registry().Observe("r0", core.Reading{EPC: testEPC(t, i%40), Antenna: 1}, now.Add(time.Duration(i)*time.Millisecond))
	}

	waitFor(t, 15*time.Second, "mirror to converge after gaps", func() bool {
		return fingerprintsMatch(t, m, client)
	})
	st := client.Status()
	if st.ContiguityViolations != 0 {
		t.Fatalf("unannounced holes: %+v", st)
	}
	if st.Gaps != st.GapsHealed+st.GapsReset {
		t.Fatalf("gap accounting doesn't balance: %+v", st)
	}
	t.Logf("gap path: %d gaps (%d healed, %d reset) over %d sessions", st.Gaps, st.GapsHealed, st.GapsReset, st.Sessions)
}

// cancelOnKeepalive cancels the client's context from inside the Read
// that returns the first keepalive, and holds that Read until the
// context's AfterFunc has forced the conn's deadline. The cancellation
// so lands while the client handles a frame, before it re-arms the read
// deadline for the next one.
type cancelOnKeepalive struct {
	net.Conn
	cancel context.CancelFunc
	fired  bool // touched only by the client's goroutine, which does every Read
	forced chan struct{}
	once   sync.Once
}

// SetDeadline is called only by the client's cancellation hook.
func (c *cancelOnKeepalive) SetDeadline(t time.Time) error {
	err := c.Conn.SetDeadline(t)
	c.once.Do(func() { close(c.forced) })
	return err
}

func (c *cancelOnKeepalive) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if !c.fired && bytes.Contains(p[:n], []byte(":keepalive")) {
		c.fired = true
		c.cancel()
		<-c.forced
	}
	return n, err
}

// TestEdgeCancelWhileHandlingFrame: a cancellation that lands while the
// client handles a frame must end Run promptly, although upstream keeps
// the stream busy with keepalives far inside the read timeout.
func TestEdgeCancelWhileHandlingFrame(t *testing.T) {
	fcfg := fleet.DefaultConfig()
	fcfg.SSEHeartbeat = 10 * time.Millisecond
	ts := httptest.NewServer(fleet.New(fcfg).Handler())
	defer ts.Close()
	// Unblocks a client that missed the cancel, so the test fails rather
	// than hangs; a no-op when Run has returned.
	defer ts.CloseClientConnections()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	forced := make(chan struct{})
	cfg := edgeConfig(ts.Listener.Addr().String())
	cfg.ReadTimeout = 30 * time.Second
	cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return &cancelOnKeepalive{Conn: conn, cancel: cancel, forced: forced}, nil
	}
	client := NewClient(cfg)
	done := make(chan error, 1)
	go func() { done <- client.Run(ctx) }()

	select {
	case <-forced:
	case <-time.After(5 * time.Second):
		t.Fatal("no keepalive reached the client")
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		ts.CloseClientConnections()
		<-done
		t.Fatal("Run still followed upstream 1s after the cancel")
	}
}
