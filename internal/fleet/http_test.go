package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tagwatch/internal/core"
)

// testManager builds an unstarted manager and seeds its registry directly:
// the HTTP layer is exercised without any live reader.
func testManager(t *testing.T, readers ...ReaderConfig) *Manager {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Readers = readers
	m := New(cfg)
	return m
}

func TestHTTPTagsAndFilters(t *testing.T) {
	m := testManager(t)
	now := time.Now()
	a := mustEPC(t, "30f4ab12cd0045e100000010")
	b := mustEPC(t, "30f4ab12cd0045e100000011")
	m.Registry().Observe("r0", core.Reading{EPC: a, Antenna: 1}, now)
	m.Registry().Observe("r1", core.Reading{EPC: b, Antenna: 2}, now)
	m.Registry().UpdateAssessment("r1", b, true, 25)

	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	var got struct {
		Count int        `json:"count"`
		Tags  []TagState `json:"tags"`
	}
	fetchJSON(t, ts.URL+"/api/tags", &got)
	if got.Count != 2 || len(got.Tags) != 2 {
		t.Fatalf("tags: %+v", got)
	}
	if got.Tags[0].EPC >= got.Tags[1].EPC {
		t.Fatal("tags not sorted")
	}

	fetchJSON(t, ts.URL+"/api/tags?mobile=1", &got)
	if got.Count != 1 || got.Tags[0].EPC != b.String() || !got.Tags[0].Mobile {
		t.Fatalf("mobile filter: %+v", got)
	}
	fetchJSON(t, ts.URL+"/api/tags?reader=r0", &got)
	if got.Count != 1 || got.Tags[0].Reader != "r0" {
		t.Fatalf("reader filter: %+v", got)
	}

	var one TagState
	fetchJSON(t, ts.URL+"/api/tags/"+b.String(), &one)
	if one.IRR != 25 {
		t.Fatalf("single tag: %+v", one)
	}
	resp, err := http.Get(ts.URL + "/api/tags/30f4ab12cd0045e1000000ff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tag status %d", resp.StatusCode)
	}
}

func TestHTTPReadersAndHealth(t *testing.T) {
	// One configured reader that is never started: its supervisor reports
	// the zero state and the fleet is unhealthy.
	m := testManager(t, ReaderConfig{Name: "r0", Addr: "127.0.0.1:1"})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	var rs struct {
		Readers []ReaderStatus `json:"readers"`
	}
	fetchJSON(t, ts.URL+"/api/readers", &rs)
	if len(rs.Readers) != 1 || rs.Readers[0].Name != "r0" || rs.Readers[0].Addr != "127.0.0.1:1" {
		t.Fatalf("readers: %+v", rs)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no reader up: %d, want 503", resp.StatusCode)
	}
}

func TestHTTPMetricsFormat(t *testing.T) {
	m := testManager(t, ReaderConfig{Name: "r0", Addr: "127.0.0.1:1"})
	m.Registry().Observe("r0", core.Reading{EPC: mustEPC(t, "30f4ab12cd0045e100000020")}, time.Now())
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text())
		body.WriteString("\n")
	}
	text := body.String()
	for _, want := range []string{
		"# TYPE tagwatch_fleet_reader_up gauge",
		`tagwatch_fleet_reader_up{reader="r0"} 0`,
		"tagwatch_fleet_registry_tags 1",
		"tagwatch_fleet_registry_observations_total 1",
		"tagwatch_fleet_bus_subscribers 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestHTTPEventsSSE(t *testing.T) {
	m := testManager(t)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	lines := make(chan string, 16)
	go func() {
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- strings.TrimRight(line, "\n")
		}
	}()
	// The stream must open with an explicit reset frame (the full-state
	// anchor a cursorless client needs), then carry the live event. The
	// event is published once the reset has arrived: one published while
	// the handler still takes its anchor can fall at or below the reset
	// cursor, and the stream then rightly skips it as covered.
	var events []string
	var datas []string
	var id, event string
	for len(events) < 2 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream ended before events arrived")
			}
			if strings.HasPrefix(line, "id: ") {
				id = strings.TrimPrefix(line, "id: ")
			}
			if strings.HasPrefix(line, "event: ") {
				event = strings.TrimPrefix(line, "event: ")
			}
			if strings.HasPrefix(line, "data: ") {
				events = append(events, event)
				datas = append(datas, strings.TrimPrefix(line, "data: "))
				if len(events) == 1 {
					m.Bus().Publish(Event{Type: EventReaderState, Reader: "r9", At: time.Now(), State: "up"})
				}
			}
		case <-deadline:
			t.Fatal("no SSE event within deadline")
		}
	}
	if events[0] != string(EventReset) {
		t.Fatalf("first frame %q, want reset", events[0])
	}
	var reset ResetPayload
	if err := json.Unmarshal([]byte(datas[0]), &reset); err != nil {
		t.Fatalf("reset data %q: %v", datas[0], err)
	}
	if reset.Identity != m.Bus().Identity() {
		t.Fatalf("reset identity %q, want %q", reset.Identity, m.Bus().Identity())
	}
	if events[1] != string(EventReaderState) {
		t.Fatalf("event type %q", events[1])
	}
	var ev Event
	if err := json.Unmarshal([]byte(datas[1]), &ev); err != nil {
		t.Fatalf("data %q: %v", datas[1], err)
	}
	if ev.Reader != "r9" || ev.State != "up" {
		t.Fatalf("event payload: %+v", ev)
	}
	if wantID := FormatCursor(m.Bus().Identity(), ev.Seq); id != wantID {
		t.Fatalf("last id %q, want %q", id, wantID)
	}
}

// TestHTTPEventsSlowClientDisconnected is the regression test for SSE
// handler pinning: a client that connects and then never reads jams its
// TCP receive window, and without write deadlines the handler goroutine
// would block in Fprintf forever with its subscriber still registered.
// With SSEWriteTimeout set, the stalled write times out, the handler
// returns, and the subscriber count drops back to zero.
func TestHTTPEventsSlowClientDisconnected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SSEWriteTimeout = 200 * time.Millisecond
	m := New(cfg)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /api/events HTTP/1.1\r\nHost: fleet\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// ...and never read a byte: the receive window fills and stays full.

	waitFor(t, 5*time.Second, "SSE subscriber to register", func() bool {
		_, _, subs := m.Bus().Stats()
		return subs == 1
	})

	// Flood with fat events until the handler's writes back up against
	// the dead window and the deadline fires. Socket buffers absorb the
	// first wave, so keep publishing until the handler gives up.
	payload := strings.Repeat("x", 1<<15)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, subs := m.Bus().Stats(); subs == 0 {
			return // handler exited and unsubscribed
		}
		for i := 0; i < 32; i++ {
			m.Bus().Publish(Event{Type: EventReaderState, Reader: "r0", At: time.Now(), State: "up", Error: payload})
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("stalled SSE client still pinning its handler after 15s")
}

func fetchJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
