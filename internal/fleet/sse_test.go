package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tagwatch/internal/core"
)

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	ID    string
	Event string
	Data  string
}

// readFrames collects n SSE frames from an open stream, skipping
// comments, failing the test on timeout.
func readFrames(t *testing.T, br *bufio.Reader, n int) []sseFrame {
	t.Helper()
	type result struct {
		frames []sseFrame
		err    error
	}
	done := make(chan result, 1)
	go func() {
		var out []sseFrame
		var f sseFrame
		for len(out) < n {
			line, err := br.ReadString('\n')
			if err != nil {
				done <- result{out, err}
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case line == "":
				if f.Event != "" || f.Data != "" {
					out = append(out, f)
				}
				f = sseFrame{}
			case strings.HasPrefix(line, "id: "):
				f.ID = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				f.Event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.Data = strings.TrimPrefix(line, "data: ")
			}
		}
		done <- result{out, nil}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("stream ended after %d/%d frames: %v", len(r.frames), n, r.err)
		}
		return r.frames
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %d SSE frames", n)
		return nil
	}
}

// openStream connects to /api/events with an optional Last-Event-ID and
// returns a reader positioned after the preamble comment.
func openStream(t *testing.T, url, lastEventID string) (*bufio.Reader, func()) {
	t.Helper()
	req, err := http.NewRequest("GET", url+"/api/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	return bufio.NewReader(resp.Body), func() { resp.Body.Close() }
}

// TestSSEResumeMatrix is the resume-matrix acceptance test: every way a
// client can come back — cursor still covered, cursor fallen off the
// ring, cursor from a previous primary's identity, garbage cursor —
// must land on either a contiguous replay or an explicit reset. There
// is no silent path.
func TestSSEResumeMatrix(t *testing.T) {
	build := func(t *testing.T, ringCap int, publish int) (*Manager, *httptest.Server) {
		cfg := DefaultConfig()
		cfg.EventRingCap = ringCap
		m := New(cfg)
		for i := 0; i < publish; i++ {
			m.Bus().Publish(Event{Type: EventCycle, Reader: "r0", At: time.Unix(int64(i), 0)})
		}
		ts := httptest.NewServer(m.Handler())
		t.Cleanup(ts.Close)
		return m, ts
	}

	t.Run("within-ring-replays", func(t *testing.T) {
		m, ts := build(t, 64, 10)
		cursor := FormatCursor(m.Bus().Identity(), 7)
		br, closeBody := openStream(t, ts.URL, cursor)
		defer closeBody()
		frames := readFrames(t, br, 3)
		for i, f := range frames {
			wantID := FormatCursor(m.Bus().Identity(), uint64(8+i))
			if f.Event != string(EventCycle) || f.ID != wantID {
				t.Fatalf("frame %d = {%s %s}, want cycle %s", i, f.Event, f.ID, wantID)
			}
		}
	})

	t.Run("past-ring-resets", func(t *testing.T) {
		m, ts := build(t, 4, 20) // ring holds 17..20; cursor 7 fell off
		cursor := FormatCursor(m.Bus().Identity(), 7)
		br, closeBody := openStream(t, ts.URL, cursor)
		defer closeBody()
		f := readFrames(t, br, 1)[0]
		if f.Event != string(EventReset) {
			t.Fatalf("first frame %q, want reset", f.Event)
		}
		var payload ResetPayload
		if err := json.Unmarshal([]byte(f.Data), &payload); err != nil {
			t.Fatal(err)
		}
		if payload.Identity != m.Bus().Identity() || payload.Cursor != 20 {
			t.Fatalf("reset anchor = %s:%d, want %s:20", payload.Identity, payload.Cursor, m.Bus().Identity())
		}
	})

	t.Run("previous-primary-identity-resets", func(t *testing.T) {
		m, ts := build(t, 64, 10)
		// A perfectly in-range seq under the WRONG identity must never
		// resume — it indexes a different sequence space.
		br, closeBody := openStream(t, ts.URL, "deadbeefdeadbeef:7")
		defer closeBody()
		f := readFrames(t, br, 1)[0]
		if f.Event != string(EventReset) {
			t.Fatalf("first frame %q, want reset", f.Event)
		}
		var payload ResetPayload
		if err := json.Unmarshal([]byte(f.Data), &payload); err != nil {
			t.Fatal(err)
		}
		if payload.Identity != m.Bus().Identity() {
			t.Fatalf("reset identity %q, want the live bus's %q", payload.Identity, m.Bus().Identity())
		}
	})

	t.Run("malformed-cursor-resets", func(t *testing.T) {
		_, ts := build(t, 64, 10)
		br, closeBody := openStream(t, ts.URL, "not a cursor")
		defer closeBody()
		if f := readFrames(t, br, 1)[0]; f.Event != string(EventReset) {
			t.Fatalf("first frame %q, want reset", f.Event)
		}
	})

	t.Run("reset-snapshot-carries-registry", func(t *testing.T) {
		cfg := DefaultConfig()
		m := New(cfg)
		now := time.Now()
		m.Registry().Observe("r0", core.Reading{EPC: mustEPC(t, "30f4ab12cd0045e100000010"), Antenna: 1}, now)
		ts := httptest.NewServer(m.Handler())
		t.Cleanup(ts.Close)
		br, closeBody := openStream(t, ts.URL, "")
		defer closeBody()
		f := readFrames(t, br, 1)[0]
		if f.Event != string(EventReset) {
			t.Fatalf("first frame %q, want reset", f.Event)
		}
		var payload ResetPayload
		if err := json.Unmarshal([]byte(f.Data), &payload); err != nil {
			t.Fatal(err)
		}
		if len(payload.Tags) != 1 || payload.Tags[0].EPC != "30f4ab12cd0045e100000010" {
			t.Fatalf("reset snapshot = %+v, want the seeded tag", payload.Tags)
		}
		// The Observe published a tag event before the snapshot was cut,
		// so the anchor cursor must already cover it: live frames resume
		// after it with no duplicate delivery.
		if payload.Cursor != m.Bus().LastSeq() {
			t.Fatalf("reset cursor %d, want %d", payload.Cursor, m.Bus().LastSeq())
		}
	})

	t.Run("replay-then-live-is-contiguous", func(t *testing.T) {
		m, ts := build(t, 64, 10)
		cursor := FormatCursor(m.Bus().Identity(), 8)
		br, closeBody := openStream(t, ts.URL, cursor)
		defer closeBody()
		frames := readFrames(t, br, 2) // replayed 9, 10
		m.Bus().Publish(Event{Type: EventHandoff, EPC: "x"})
		frames = append(frames, readFrames(t, br, 1)...)
		for i, f := range frames {
			_, seq, ok := ParseCursor(f.ID)
			if !ok || seq != uint64(9+i) {
				t.Fatalf("frame %d id %q, want seq %d", i, f.ID, 9+i)
			}
		}
	})
}

// gatedWriter is a streaming ResponseWriter whose next write can be
// held: hold arms it, and that write signals entered and waits until
// the returned release func runs.
type gatedWriter struct {
	mu      sync.Mutex
	header  http.Header
	body    strings.Builder
	gate    chan struct{}
	entered chan struct{}
}

func (w *gatedWriter) Header() http.Header { return w.header }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Flush()              {}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	gate := w.gate
	w.gate = nil
	w.mu.Unlock()
	if gate != nil {
		w.entered <- struct{}{}
		<-gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.WriteString(string(p))
}

func (w *gatedWriter) hold() (release func()) {
	gate := make(chan struct{})
	w.mu.Lock()
	w.gate = gate
	w.mu.Unlock()
	return func() { close(gate) }
}

func (w *gatedWriter) text() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.String()
}

// TestSSEAnnouncesTailGapAtOnce: when a burst overflows a client's
// queue and nothing follows it, the gap frame goes out as soon as the
// client has taken the events before the hole, not at the next
// heartbeat.
func TestSSEAnnouncesTailGapAtOnce(t *testing.T) {
	bus := NewBus()
	es := &EventStreamer{
		Bus: bus, Snapshot: func() []TagState { return nil },
		WriteTimeout: time.Second, Heartbeat: time.Hour, Buffer: 1,
	}
	w := &gatedWriter{header: http.Header{}, entered: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		es.ServeHTTP(w, httptest.NewRequest("GET", "/api/events", nil).WithContext(ctx))
	}()
	defer func() {
		cancel()
		<-done
	}()
	waitFor(t, 5*time.Second, "the reset frame", func() bool { return strings.Contains(w.text(), "event: reset") })

	// Event 1 wedges the writer; 2 fills the one-slot queue; 3 and 4
	// are shed, and nothing is published after them.
	release := w.hold()
	bus.Publish(Event{Type: EventCycle, Reader: "r0"})
	<-w.entered
	for i := 0; i < 3; i++ {
		bus.Publish(Event{Type: EventCycle, Reader: "r0"})
	}
	release()
	waitFor(t, 5*time.Second, "the tail gap frame", func() bool { return strings.Contains(w.text(), "event: gap") })
	if !strings.Contains(w.text(), `"gap_from":3,"gap_to":4`) {
		t.Fatalf("gap frame does not name events 3-4:\n%s", w.text())
	}
}
