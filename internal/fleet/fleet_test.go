package fleet

// The fleet acceptance test: four emulated LLRP readers under one
// manager, one reader killed and restarted mid-run. The fleet must notice
// (supervisor leaves "up", observable over /api/readers), reconnect with
// backoff, and keep the merged registry consistent throughout — all under
// the race detector.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/llrp"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
)

// startEmulator boots one reader emulator over a small stationary scene.
// addr may be "127.0.0.1:0" for an ephemeral port or a concrete address to
// rebind after a kill.
func startEmulator(t *testing.T, addr string, seed int64, codes []epc.EPC) (*llrp.Server, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	for i, c := range codes {
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.5+float64(i%8)*0.3, 0.5+float64(i/8)*0.3, 0)})
	}
	rcfg := reader.DefaultConfig()
	rcfg.HopEvery = 0
	srv := llrp.NewServer(reader.New(rcfg, scn), llrp.ServerConfig{})
	bound, err := srv.Listen(addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	return srv, bound.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func readerStatus(m *Manager, name string) ReaderStatus {
	for _, rs := range m.Readers() {
		if rs.Name == name {
			return rs
		}
	}
	return ReaderStatus{}
}

func TestFleetReconnectAndMergedRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration")
	}
	const perReader = 6
	rng := rand.New(rand.NewSource(42))

	// Distinct populations per reader, plus one shared tag visible to both
	// r0 and r1 so the registry records reader-to-reader handoffs.
	var pops [4][]epc.EPC
	for i := range pops {
		codes, err := epc.RandomPopulation(rng, perReader, 96)
		if err != nil {
			t.Fatal(err)
		}
		pops[i] = codes
	}
	shared, err := epc.RandomPopulation(rng, 1, 96)
	if err != nil {
		t.Fatal(err)
	}
	pops[0] = append(pops[0], shared[0])
	pops[1] = append(pops[1], shared[0])
	distinct := 4*perReader + 1

	var srvs [4]*llrp.Server
	var addrs [4]string
	for i := range srvs {
		srvs[i], addrs[i] = startEmulator(t, "127.0.0.1:0", int64(100+i), pops[i])
	}
	defer func() {
		for _, s := range srvs {
			if s != nil {
				s.Close()
			}
		}
	}()

	cfg := DefaultConfig()
	cfg.Tagwatch.PhaseIIDwell = 300 * time.Millisecond
	cfg.DialTimeout = 2 * time.Second
	cfg.BackoffBase = 25 * time.Millisecond
	cfg.BackoffMax = 250 * time.Millisecond
	for i := range addrs {
		cfg.Readers = append(cfg.Readers, ReaderConfig{Name: fmt.Sprintf("r%d", i), Addr: addrs[i]})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := New(cfg)
	// The subscriber is read as events arrive: the readers publish tag
	// images as fast as they read, and a buffer read only at the end
	// would fill with them before r2's transitions are published.
	events := m.Bus().Subscribe(1024)
	var (
		evMu     sync.Mutex
		r2States []Event // r2's reader_state events, in order
		gaps     int
	)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range events.C() {
			evMu.Lock()
			switch {
			case ev.Type == EventGap:
				gaps++
			case ev.Type == EventReaderState && ev.Reader == "r2":
				r2States = append(r2States, ev)
			}
			evMu.Unlock()
		}
	}()
	defer func() {
		events.Close()
		<-consumed
	}()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	apiState := func(name string) (string, ReaderStatus) {
		resp, err := http.Get(ts.URL + "/api/readers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Readers []ReaderStatus `json:"readers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		for _, rs := range body.Readers {
			if rs.Name == name {
				return rs.State, rs
			}
		}
		return "", ReaderStatus{}
	}

	// Phase 1: everyone connects and the merged registry fills.
	waitFor(t, 15*time.Second, "all 4 readers up", func() bool {
		up := 0
		for _, rs := range m.Readers() {
			if rs.State == "up" {
				up++
			}
		}
		return up == 4
	})
	waitFor(t, 20*time.Second, "registry to merge every population", func() bool {
		return m.Registry().Len() == distinct
	})
	waitFor(t, 20*time.Second, "a handoff on the shared tag", func() bool {
		_, handoffs := m.Registry().Stats()
		return handoffs >= 1
	})
	if st, ok := m.Registry().Get(shared[0]); !ok || st.Handoffs < 1 ||
		(st.Readers.Get("r0") == 0 || st.Readers.Get("r1") == 0) {
		st, _ := m.Registry().Get(shared[0])
		t.Fatalf("shared tag state: %+v", st)
	}

	// Phase 2: kill r2 mid-run. The supervisor must leave "up" and start
	// dialing/backing off, observable over /api/readers.
	srvs[2].Close()
	srvs[2] = nil
	waitFor(t, 15*time.Second, "r2 to leave the up state over the API", func() bool {
		state, _ := apiState("r2")
		return state == "backoff" || state == "connecting"
	})
	attemptsWhileDown := readerStatus(m, "r2").Attempts
	waitFor(t, 15*time.Second, "r2 retry attempts to accumulate", func() bool {
		rs := readerStatus(m, "r2")
		return rs.Attempts > attemptsWhileDown && rs.LastError != ""
	})

	// The rest of the fleet keeps serving while r2 is down.
	for _, name := range []string{"r0", "r1", "r3"} {
		if rs := readerStatus(m, name); rs.State != "up" {
			t.Fatalf("%s degraded while r2 down: %+v", name, rs)
		}
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while partially up: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// Phase 3: restart r2 on the same address; the supervisor reconnects
	// and the merged registry converges again (fresh sightings of r2's
	// population).
	restartAt := time.Now()
	srvs[2], _ = startEmulator(t, addrs[2], 300, pops[2])
	waitFor(t, 20*time.Second, "r2 to reconnect", func() bool {
		state, rs := apiState("r2")
		return state == "up" && rs.Reconnects >= 1
	})
	waitFor(t, 20*time.Second, "r2 tags fresh after restart", func() bool {
		st, ok := m.Registry().Get(pops[2][0])
		return ok && st.LastSeen.After(restartAt) && st.Reader == "r2"
	})
	if m.Registry().Len() != distinct {
		t.Fatalf("registry diverged across restart: %d tags, want %d", m.Registry().Len(), distinct)
	}

	// The bus saw the full story: r2 going up, leaving up, and coming
	// back, with nothing lost on the way.
	waitFor(t, 5*time.Second, "r2's backoff and re-up on the event stream", func() bool {
		evMu.Lock()
		defer evMu.Unlock()
		sawBackoff := false
		for _, ev := range r2States {
			if ev.State == "backoff" || ev.State == "connecting" && ev.Attempt > 1 {
				sawBackoff = true
			}
			if ev.State == "up" && sawBackoff {
				return true
			}
		}
		return false
	})
	evMu.Lock()
	lost := gaps
	evMu.Unlock()
	if lost > 0 || events.Dropped() > 0 {
		t.Fatalf("the subscriber lost %d events in %d gaps", events.Dropped(), lost)
	}

	// Metrics reflect the reconnect.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`tagwatch_fleet_reader_up{reader="r2"} 1`,
		"tagwatch_fleet_registry_handoffs_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestSupervisorRetryBudget: a reader that never answers exhausts its
// capped retry budget and lands in the down state — and the failure is
// observable over every serving surface: /api/readers state, /healthz
// degradation, and /metrics counters.
func TestSupervisorRetryBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Readers = []ReaderConfig{{Name: "dead", Addr: "127.0.0.1:1"}}
	cfg.DialTimeout = 500 * time.Millisecond
	cfg.BackoffBase = 10 * time.Millisecond
	cfg.BackoffMax = 20 * time.Millisecond
	cfg.MaxFailures = 3

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := New(cfg)
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	waitFor(t, 10*time.Second, "supervisor to spend its retry budget", func() bool {
		rs := readerStatus(m, "dead")
		return rs.State == "down"
	})
	rs := readerStatus(m, "dead")
	if rs.Attempts != 3 || rs.ConsecutiveFailures != 3 || rs.LastError == "" {
		t.Fatalf("final status: %+v", rs)
	}
	if m.Healthy() {
		t.Fatal("fleet with only a dead reader must be unhealthy")
	}

	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	// /healthz must refuse with 503 and report itself degraded.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with every reader down: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(hbody), `"degraded"`) {
		t.Fatalf("healthz body missing degraded marker: %s", hbody)
	}

	// /metrics must expose the down state and the spent dial budget.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(mbody)
	for _, want := range []string{
		`tagwatch_fleet_reader_up{reader="dead"} 0`,
		`tagwatch_fleet_reader_state{reader="dead",state="down"} 1`,
		`tagwatch_fleet_reader_state{reader="dead",state="up"} 0`,
		`tagwatch_fleet_reader_dial_attempts_total{reader="dead"} 3`,
		`tagwatch_fleet_reader_failures_total{reader="dead"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}
