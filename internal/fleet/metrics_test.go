package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/llrp"
	"tagwatch/internal/llrp/llrptest"
	"tagwatch/internal/promtext"
	"tagwatch/internal/replication"
)

// scrapeMetrics fetches a /metrics page and maps each sample's series
// (name and label set, as written) to its value.
func scrapeMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url)
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

// TestMetricsPageGolden pins the whole fleet page for a fixed,
// un-started manager: two readers (one named with a tab), one merged
// tag, and one subscriber that lost the second of two events.
func TestMetricsPageGolden(t *testing.T) {
	m := testManager(t, ReaderConfig{Name: "aisle\t1", Addr: "127.0.0.1:1"}, ReaderConfig{Name: "r1", Addr: "127.0.0.1:2"})
	sub := m.Bus().Subscribe(1)
	defer sub.Close()
	m.Registry().Observe("r1", core.Reading{EPC: mustEPC(t, "30f4ab12cd0045e100000020")}, time.Unix(0, 0))
	m.Bus().Publish(Event{Type: EventCycle, Reader: "r1"})

	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Fatalf("metrics page differs from testdata/metrics.golden:\n%s", got)
	}
}

// TestMetricsEscapesReaderNames: a reader name reaches the label value
// with exactly the text format's three escapes; a tab and a no-break
// space are written as they are.
func TestMetricsEscapesReaderNames(t *testing.T) {
	m := testManager(t, ReaderConfig{Name: "a\tb\u00a0\"c\\d\ne", Addr: "127.0.0.1:1"})
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	want := "\ntagwatch_fleet_reader_up{reader=\"a\tb\u00a0\\\"c\\\\d\\ne\"} 0\n"
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("metrics page lacks %q:\n%s", want, rec.Body.String())
	}
}

// standbyFamilies is what the standby's /metrics must report for st.
func standbyFamilies(st replication.StandbyStatus) map[string]int64 {
	return map[string]int64{
		"tagwatch_standby_connected":               promtext.Bool(st.Connected),
		"tagwatch_standby_lag_bytes":               st.LagBytes,
		"tagwatch_standby_records_applied_total":   int64(st.Records),
		"tagwatch_standby_snapshots_applied_total": int64(st.Snapshots),
		"tagwatch_standby_wipes_total":             int64(st.Wipes),
		"tagwatch_standby_sessions_total":          int64(st.Sessions),
	}
}

// TestStandbyMetricsMatchStatus: the standby page's six families equal
// Standby.Status(), read at a quiet point of a live replication session.
func TestStandbyMetricsMatchStatus(t *testing.T) {
	sb := testStandby(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := sb.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()

	cfg := DefaultConfig()
	cfg.QuarantineK = 0
	cfg.StateDir = t.TempDir()
	cfg.ReplicateTo = []string{sb.repl.Addr().String()}
	primary := New(cfg)
	if err := primary.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := primary.Stop(); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 5; i++ {
		code := mustEPC(t, "30f4ab12cd0045e1000000"+strconv.Itoa(10+i))
		primary.Registry().Observe("r0", core.Reading{EPC: code, Antenna: 1}, time.Now())
	}
	sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
	defer scancel()
	if err := primary.SyncReplication(sctx); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(sb.Handler())
	defer ts.Close()
	var page, want map[string]int64
	waitFor(t, 5*time.Second, "a quiet point around one scrape", func() bool {
		before := standbyFamilies(sb.Status())
		page = scrapeMetrics(t, ts.URL+"/metrics")
		want = standbyFamilies(sb.Status())
		return reflect.DeepEqual(before, want)
	})
	if !reflect.DeepEqual(page, want) {
		t.Fatalf("standby /metrics = %v, Status() = %v", page, want)
	}
	if want["tagwatch_standby_connected"] != 1 || want["tagwatch_standby_records_applied_total"] == 0 {
		t.Fatalf("no live session was measured: %v", want)
	}
}

// TestDiscardedReportsMetric: tag reports naming another ROSpec than
// the running one are dropped, and each reader's count of them, summed
// over its sessions, reaches /api/readers and /metrics exactly. The
// scripted reader sends two strays in each of its first two ROSpecs,
// hangs up, and sends three more in the first ROSpec of the next
// session.
func TestDiscardedReportsMetric(t *testing.T) {
	var (
		mu    sync.Mutex
		specs = map[*llrptest.Session]int{}
		sent  int
		clock uint64 // µs; the device clock advances 50 ms per ROSpec
	)
	code := mustEPC(t, "30f4ab12cd0045e100000001")
	addr := llrptest.Listen(t, func(s *llrptest.Session, req llrp.Message) bool {
		id, _ := llrp.ROSpecIDOf(req)
		mu.Lock()
		defer mu.Unlock()
		switch req.Type {
		case llrp.MsgStartROSpec:
			if s.Reply(req, llrp.StatusSuccess) != nil {
				return false
			}
			specs[s]++
			strays := 0
			switch {
			case len(specs) == 1 && specs[s] <= 2:
				strays = 2
			case len(specs) == 2 && specs[s] == 1:
				strays = 3
			}
			clock += 50_000
			reports := []llrp.TagReportData{{EPC: code, ROSpecID: id, AntennaID: 1, ChannelIndex: 1, FirstSeenUTC: clock}}
			for i := 0; i < strays; i++ {
				reports = append(reports, llrp.TagReportData{EPC: code, ROSpecID: id + 100, AntennaID: 1, ChannelIndex: 1})
			}
			sent += strays
			return s.Report(reports...) == nil && s.Ended(id) == nil
		case llrp.MsgDeleteROSpec:
			if len(specs) == 1 && specs[s] == 3 {
				return false // hang up: the supervisor starts a second session
			}
		}
		return s.Reply(req, llrp.StatusSuccess) == nil
	})

	cfg := DefaultConfig()
	cfg.Readers = []ReaderConfig{{Name: "r0", Addr: addr}}
	cfg.KeepalivePeriod = 0
	cfg.BackoffBase = 10 * time.Millisecond
	cfg.BackoffMax = 20 * time.Millisecond
	cfg.Tagwatch.PhaseIIDwell = 50 * time.Millisecond
	m := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	waitFor(t, 10*time.Second, "a second session past its first ROSpec", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(specs) == 2 && readerStatus(m, "r0").Cycles >= 4
	})
	mu.Lock()
	want := sent
	mu.Unlock()
	if want != 7 {
		t.Fatalf("the scripted reader sent %d strays, want 7", want)
	}
	if rs := readerStatus(m, "r0"); rs.DiscardedReports != uint64(want) || rs.Reconnects != 1 {
		t.Fatalf("reader status %+v, want %d discarded reports over 2 sessions", rs, want)
	}
	if got := scrapeMetrics(t, ts.URL+"/metrics")[`tagwatch_fleet_reader_discarded_reports_total{reader="r0"}`]; got != int64(want) {
		t.Fatalf("discarded reports metric = %d, the reader sent %d strays", got, want)
	}
}
