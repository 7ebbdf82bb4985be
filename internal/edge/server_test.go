package edge

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/fleet"
	"tagwatch/internal/promtext"
)

type edgeStatus struct {
	Link   ClientStatus       `json:"link"`
	Events fleet.EventsStatus `json:"events"`
}

func fetchStatus(t *testing.T, url string) edgeStatus {
	t.Helper()
	resp, err := http.Get(url + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st edgeStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// Staleness ages between any two reads; it is checked on its own.
	st.Link.StalenessMS = 0
	return st
}

// scrapeMetrics fetches a /metrics page and maps each sample's series
// (name and label set, as written) to its value.
func scrapeMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestEdgeMetricsMatchStatus: the edge's /metrics reports the link
// ledger and the downstream bus exactly as its /api/status does, both
// read at one quiet point with a downstream subscriber attached.
func TestEdgeMetricsMatchStatus(t *testing.T) {
	m := upstreamManager(t)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	now := time.Now()
	for i := 0; i < 5; i++ {
		m.Registry().Observe("r0", core.Reading{EPC: testEPC(t, i), Antenna: 1}, now)
	}

	client := NewClient(edgeConfig(ts.Listener.Addr().String()))
	edgeTS := httptest.NewServer(NewServer(client).Handler())
	defer edgeTS.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = client.Run(ctx) }()
	defer func() { cancel(); <-done }()
	waitFor(t, 5*time.Second, "mirror to converge", func() bool {
		return fingerprintsMatch(t, m, client)
	})

	resp, err := http.Get(edgeTS.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	readOneFrame(t, bufio.NewReader(resp.Body))

	var page map[string]int64
	var st edgeStatus
	waitFor(t, 5*time.Second, "a quiet point around one scrape", func() bool {
		before := fetchStatus(t, edgeTS.URL)
		page = scrapeMetrics(t, edgeTS.URL)
		st = fetchStatus(t, edgeTS.URL)
		return reflect.DeepEqual(before, st)
	})
	if v, ok := page["tagwatch_edge_staleness_ms"]; !ok || v < 0 {
		t.Fatalf("tagwatch_edge_staleness_ms = %d (present %v) on a synced edge", v, ok)
	}
	delete(page, "tagwatch_edge_staleness_ms")

	link, ev := st.Link, st.Events
	want := map[string]int64{
		"tagwatch_edge_upstream_connected":          promtext.Bool(link.Connected),
		"tagwatch_edge_mirror_tags":                 int64(link.Tags),
		"tagwatch_edge_cursor":                      int64(link.Cursor),
		"tagwatch_edge_sessions_total":              int64(link.Sessions),
		"tagwatch_edge_frames_total":                int64(link.Frames),
		"tagwatch_edge_resets_total":                int64(link.Resets),
		"tagwatch_edge_identity_changes_total":      int64(link.IdentityChanges),
		"tagwatch_edge_gaps_total":                  int64(link.Gaps),
		"tagwatch_edge_gaps_healed_total":           int64(link.GapsHealed),
		"tagwatch_edge_gaps_reset_total":            int64(link.GapsReset),
		"tagwatch_edge_contiguity_violations_total": int64(link.ContiguityViolations),

		"tagwatch_edge_bus_events_total":    int64(ev.Published),
		"tagwatch_edge_bus_dropped_total":   int64(ev.Dropped),
		"tagwatch_edge_bus_rejected_total":  int64(ev.Rejected),
		"tagwatch_edge_bus_subscribers":     int64(ev.Subscribers),
		"tagwatch_edge_bus_gaps_total":      int64(ev.Gaps),
		"tagwatch_edge_bus_last_seq":        int64(ev.LastSeq),
		"tagwatch_edge_bus_ring_oldest_seq": int64(ev.OldestRetained),
		"tagwatch_edge_bus_ring_window":     int64(ev.LastSeq - ev.OldestRetained + 1),
	}
	for _, sd := range ev.PerSubscriber {
		want[fmt.Sprintf("tagwatch_edge_bus_subscriber_dropped_total{subscriber=%q}", strconv.Itoa(sd.ID))] = int64(sd.Dropped)
		want[fmt.Sprintf("tagwatch_edge_bus_subscriber_gaps_total{subscriber=%q}", strconv.Itoa(sd.ID))] = int64(sd.Gaps)
	}
	if !reflect.DeepEqual(page, want) {
		t.Fatalf("edge /metrics = %v\n/api/status gives %v", page, want)
	}
	if !link.Connected || link.Tags != 5 || ev.Subscribers != 1 || ev.LastSeq == 0 || len(ev.PerSubscriber) != 1 {
		t.Fatalf("nothing measured at the quiet point: %+v", st)
	}
}
