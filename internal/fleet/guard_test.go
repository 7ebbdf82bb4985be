package fleet

// Overload-armor tests: bounded registry with eviction, ghost-tag
// quarantine (including ghosts minted by the chaos corruption fault),
// admission control on the HTTP API, SSE subscriber limits, and
// panic-containment with restart budgets.

import (
	"bufio"
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tagwatch/internal/chaos"
	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/guard"
)

func reading(code epc.EPC, at time.Duration) core.Reading {
	return core.Reading{EPC: code, Time: at, Antenna: 1, Channel: 0, PhaseRad: 1.0}
}

// TestRegistryFloodBounded floods a capped registry with 100k unique EPCs
// and requires the population bound to hold throughout, with every
// displaced tag leaving a journal tombstone.
func TestRegistryFloodBounded(t *testing.T) {
	const maxTags = 1024
	const flood = 100_000
	reg := NewRegistry()
	reg.Guard(maxTags, nil)

	rng := rand.New(rand.NewSource(41))
	codes, err := epc.RandomPopulation(rng, flood, 96)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	// Per-shard cap = ceil(maxTags/16); the effective bound is that cap
	// times the shard count.
	bound := ((maxTags + numShards - 1) / numShards) * numShards
	for i, code := range codes {
		reg.Observe("r0", reading(code, time.Duration(i)), base.Add(time.Duration(i)*time.Millisecond))
		if i%10_000 == 0 && reg.Len() > bound {
			t.Fatalf("after %d observations registry holds %d tags, bound %d", i+1, reg.Len(), bound)
		}
	}
	if got := reg.Len(); got > bound {
		t.Fatalf("registry holds %d tags, bound %d", got, bound)
	}
	evicted, _, _ := reg.GuardStats()
	if evicted == 0 {
		t.Fatal("flood evicted nothing")
	}
	if int(evicted) != flood-reg.Len() {
		t.Fatalf("evicted %d + live %d != flood %d", evicted, reg.Len(), flood)
	}
	// Every eviction left a tombstone for the journal.
	states, dropped := reg.DrainDirty()
	if len(dropped) != int(evicted) {
		t.Fatalf("DrainDirty returned %d tombstones, want %d", len(dropped), evicted)
	}
	if len(states) != reg.Len() {
		t.Fatalf("DrainDirty returned %d live states, registry holds %d", len(states), reg.Len())
	}
}

// TestRegistryEvictionOrder pins three EPCs into one shard and checks the
// stalest one is the eviction victim.
func TestRegistryEvictionOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Guard(2*numShards, nil) // 2 per shard

	rng := rand.New(rand.NewSource(7))
	codes, err := epc.RandomPopulation(rng, 512, 96)
	if err != nil {
		t.Fatal(err)
	}
	// Find three EPCs that hash to the same shard.
	want := reg.shard(codes[0])
	same := []epc.EPC{codes[0]}
	for _, c := range codes[1:] {
		if reg.shard(c) == want {
			same = append(same, c)
			if len(same) == 3 {
				break
			}
		}
	}
	if len(same) < 3 {
		t.Fatal("could not find three same-shard EPCs in sample")
	}
	base := time.Unix(1_700_000_000, 0)
	reg.Observe("r0", reading(same[0], 0), base.Add(2*time.Second)) // freshest
	reg.Observe("r0", reading(same[1], 0), base)                    // stalest
	// The shard is at its cap of 2; admitting the third EPC must evict
	// the stalest of the first two.
	reg.Observe("r0", reading(same[2], 0), base.Add(1*time.Second))
	if _, ok := reg.Get(same[1]); ok {
		t.Fatal("stalest tag survived eviction")
	}
	if _, ok := reg.Get(same[0]); !ok {
		t.Fatal("freshest tag was evicted")
	}
	if _, ok := reg.Get(same[2]); !ok {
		t.Fatal("newly admitted tag missing")
	}
}

// TestRegistryQuarantineBlocksGhosts verifies one-off EPCs never allocate
// registry entries or journal records, while a repeatedly sighted tag
// clears probation and is admitted.
func TestRegistryQuarantineBlocksGhosts(t *testing.T) {
	reg := NewRegistry()
	quar := guard.NewQuarantine[epc.EPC](3, 10*time.Second, 4096)
	reg.Guard(0, quar)

	rng := rand.New(rand.NewSource(11))
	codes, err := epc.RandomPopulation(rng, 1000, 96)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	realTag, ghosts := codes[0], codes[1:]
	for i, g := range ghosts {
		reg.Observe("r0", reading(g, time.Duration(i)), base)
	}
	if got := reg.Len(); got != 0 {
		t.Fatalf("ghosts allocated %d registry entries", got)
	}
	// The real tag needs K=3 sightings.
	for i := 0; i < 3; i++ {
		reg.Observe("r0", reading(realTag, time.Duration(i)), base.Add(time.Duration(i)*time.Second))
	}
	if _, ok := reg.Get(realTag); !ok {
		t.Fatal("confirmed tag not admitted")
	}
	states, dropped := reg.DrainDirty()
	if len(states) != 1 || states[0].EPC != realTag.String() {
		t.Fatalf("journal feed holds %d states, want only the confirmed tag", len(states))
	}
	if len(dropped) != 0 {
		t.Fatalf("journal feed holds %d tombstones, want 0", len(dropped))
	}
	// The first two sightings were held; the third confirmed and counted
	// as an observation.
	_, quarantined, qs := reg.GuardStats()
	if quarantined == 0 || qs.Held == 0 || qs.Confirmed != 1 {
		t.Fatalf("guard stats: quarantined=%d held=%d confirmed=%d", quarantined, qs.Held, qs.Confirmed)
	}
}

// corruptEPCs pipes EPC bytes through the chaos corruption fault to mint
// the ghost EPCs a broken RF front-end would decode: same length, a few
// bytes flipped, never matching any real tag.
func corruptEPCs(t *testing.T, codes []epc.EPC) []epc.EPC {
	t.Helper()
	inj := chaos.New(chaos.Config{Seed: 99, CorruptProb: 1})
	client, server := net.Pipe()
	faulty := inj.Conn(server)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer client.Close()
		for _, c := range codes {
			if _, err := client.Write(c.Bytes()); err != nil {
				return
			}
		}
	}()
	var out []epc.EPC
	for range codes {
		buf := make([]byte, len(codes[0].Bytes()))
		if _, err := io.ReadFull(faulty, buf); err != nil {
			t.Fatalf("read corrupted EPC: %v", err)
		}
		out = append(out, epc.New(buf))
	}
	faulty.Close()
	<-done
	return out
}

// TestChaosGhostsNeverReachJournal drives the quarantine with ghost EPCs
// minted by the chaos corruption fault and requires that none of them
// reach the registry or its journal feed, while the legitimate originals
// keep flowing.
func TestChaosGhostsNeverReachJournal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	legit, err := epc.RandomPopulation(rng, 64, 96)
	if err != nil {
		t.Fatal(err)
	}
	ghosts := corruptEPCs(t, legit)
	legitSet := make(map[string]bool, len(legit))
	for _, c := range legit {
		legitSet[c.String()] = true
	}
	distinct := 0
	for _, g := range ghosts {
		if !legitSet[g.String()] {
			distinct++
		}
	}
	if distinct == 0 {
		t.Fatal("corruption fault produced no distinct ghosts")
	}

	reg := NewRegistry()
	reg.Guard(0, guard.NewQuarantine[epc.EPC](2, 10*time.Second, 4096))
	base := time.Unix(1_700_000_000, 0)
	// Real tags are sighted every cycle; each ghost decode happens once.
	for cycle := 0; cycle < 3; cycle++ {
		at := base.Add(time.Duration(cycle) * time.Second)
		for _, c := range legit {
			reg.Observe("r0", reading(c, time.Duration(cycle)), at)
		}
	}
	for i, g := range ghosts {
		if legitSet[g.String()] {
			continue
		}
		reg.Observe("r0", reading(g, 0), base.Add(time.Duration(i)*time.Millisecond))
	}

	states, _ := reg.DrainDirty()
	for _, st := range states {
		if !legitSet[st.EPC] {
			t.Fatalf("ghost EPC %s reached the journal feed", st.EPC)
		}
	}
	if len(states) != len(legit) {
		t.Fatalf("journal feed holds %d states, want %d legit tags", len(states), len(legit))
	}
	for _, g := range ghosts {
		if legitSet[g.String()] {
			continue
		}
		if _, ok := reg.Get(g); ok {
			t.Fatalf("ghost EPC %s admitted to registry", g)
		}
	}
}

// TestSupervisorPanicRestartsThenTrips injects a deterministic panic into
// a supervisor loop and requires the manager to restart it under the
// breaker's budget, then trip it to dead — while the manager itself stays
// up and serving.
func TestSupervisorPanicRestartsThenTrips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Readers = []ReaderConfig{{Name: "r0", Addr: "127.0.0.1:1"}}
	cfg.RestartBudget = 3
	cfg.RestartWindow = time.Minute
	m := New(cfg)
	m.sups[0].crash = func() { panic("injected supervisor bug") }

	sub := m.bus.Subscribe(256)
	defer sub.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	waitFor(t, 15*time.Second, "supervisor tripped", func() bool {
		return readerStatus(m, "r0").Tripped
	})
	st := readerStatus(m, "r0")
	if st.State != StateDown.String() {
		t.Fatalf("tripped supervisor state = %s, want down", st.State)
	}
	// The manager is alive: its API layer still answers.
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/readers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/readers after trip: %d", resp.StatusCode)
	}

	// The bus saw the containments and the trip.
	var contained, tripped int
	for {
		select {
		case ev := <-sub.C():
			if ev.Type != EventPanic {
				continue
			}
			switch ev.State {
			case "contained":
				contained++
			case "tripped":
				tripped++
			}
			if tripped > 0 {
				if contained < cfg.RestartBudget {
					t.Fatalf("saw %d contained panics before trip, want >= %d", contained, cfg.RestartBudget)
				}
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no trip event on bus (contained=%d)", contained)
		}
	}
}

// TestManagerSurvivesCheckpointPanic is the containment guarantee for the
// background checkpoint loop: its panics are counted, not fatal.
func TestManagerSurvivesCheckpointPanic(t *testing.T) {
	m := New(DefaultConfig())
	perr := m.sentinel.Do("checkpoint", func() { panic("checkpoint bug") })
	if perr == nil {
		t.Fatal("sentinel did not report the panic")
	}
	if m.sentinel.Total() != 1 {
		t.Fatalf("sentinel total = %d", m.sentinel.Total())
	}
}

// TestHandlerAdmissionRateLimit verifies the fleet API answers 429 with
// Retry-After once a client spends its bucket, while /healthz and
// /metrics bypass the limiter entirely.
func TestHandlerAdmissionRateLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.APIRate = 1
	cfg.APIBurst = 3
	m := New(cfg)
	h := m.Handler()

	got429 := false
	for i := 0; i < 5; i++ {
		req := httptest.NewRequest("GET", "/api/tags", nil)
		req.RemoteAddr = "203.0.113.9:5555"
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code == http.StatusTooManyRequests {
			got429 = true
			if rr.Header().Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		}
	}
	if !got429 {
		t.Fatal("no request was rate limited")
	}
	for i := 0; i < 20; i++ {
		for _, path := range []string{"/healthz", "/metrics"} {
			req := httptest.NewRequest("GET", path, nil)
			req.RemoteAddr = "203.0.113.9:5555"
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code == http.StatusTooManyRequests {
				t.Fatalf("%s was rate limited", path)
			}
		}
	}
	// The metrics exposition carries the guard counters.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.RemoteAddr = "203.0.113.9:5555"
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	body := rr.Body.String()
	for _, metric := range []string{
		"tagwatch_guard_api_rate_limited_total",
		"tagwatch_guard_api_shed_total",
		"tagwatch_guard_quarantine_held_total",
		"tagwatch_fleet_registry_evicted_total",
		"tagwatch_fleet_bus_rejected_total",
		"tagwatch_fleet_reader_tripped",
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("metrics exposition missing %s", metric)
		}
	}
	if !strings.Contains(body, "tagwatch_guard_api_rate_limited_total 2") {
		t.Fatalf("rate-limited counter not exposed, body fragment: %.200s", body)
	}
}

// TestHandlerContainsPanics: a panicking handler answers 500 and the
// panic shows up in the admission counters instead of killing the server.
func TestHandlerContainsPanics(t *testing.T) {
	m := New(DefaultConfig())
	// None of the real handlers panic on any input we can craft, so wrap
	// the manager's own admission middleware around a deliberate bomb.
	h := m.admission.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("bug")
	}))
	req := httptest.NewRequest("GET", "/api/tags", nil)
	req.RemoteAddr = "203.0.113.2:1"
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d", rr.Code)
	}
	if m.admission.Stats().Panics != 1 {
		t.Fatalf("panic not counted: %+v", m.admission.Stats())
	}
}

// TestSSESubscriberLimit opens streams up to the cap and requires the
// next one to be refused with a 503 and counted.
func TestSSESubscriberLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSSEClients = 2
	m := New(cfg)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	open := func() (*http.Response, error) {
		req, _ := http.NewRequest("GET", srv.URL+"/api/events", nil)
		return http.DefaultClient.Do(req)
	}
	var streams []*http.Response
	defer func() {
		for _, s := range streams {
			s.Body.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		resp, err := open()
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: %d", i, resp.StatusCode)
		}
		// Read the banner so the handler is committed before the next dial.
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap stream answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if got := m.bus.Status().Rejected; got != 1 {
		t.Fatalf("bus rejected = %d, want 1", got)
	}
}

// TestBusPerSubscriberDrops verifies the per-subscriber drop counters
// feeding the /metrics exposition.
func TestBusPerSubscriberDrops(t *testing.T) {
	b := NewBus()
	fast := b.Subscribe(64)
	defer fast.Close()
	slow := b.Subscribe(1)
	defer slow.Close()
	for i := 0; i < 10; i++ {
		b.Publish(Event{Type: EventCycle, At: time.Now()})
	}
	drops := b.Status().PerSubscriber
	if len(drops) != 2 {
		t.Fatalf("Status reported %d subscribers' drops", len(drops))
	}
	if drops[0].Dropped != 0 {
		t.Fatalf("fast subscriber dropped %d", drops[0].Dropped)
	}
	if drops[1].Dropped != 9 {
		t.Fatalf("slow subscriber dropped %d, want 9", drops[1].Dropped)
	}
	if fast.Dropped() != 0 || slow.Dropped() != 9 {
		t.Fatalf("per-subscriber counters: fast=%d slow=%d", fast.Dropped(), slow.Dropped())
	}
}

// TestTagsRejectsNegativeLimit pins the explicit 400 on ?limit=-1 (the
// clamp-to-zero alternative would silently return everything).
func TestTagsRejectsNegativeLimit(t *testing.T) {
	m := New(DefaultConfig())
	h := m.Handler()
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"limit=-1", http.StatusBadRequest},
		{"limit=abc", http.StatusBadRequest},
		{"limit=0", http.StatusOK},
		{"limit=5", http.StatusOK},
	} {
		req := httptest.NewRequest("GET", "/api/tags?"+tc.query, nil)
		req.RemoteAddr = "203.0.113.3:1"
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != tc.want {
			t.Fatalf("?%s answered %d, want %d", tc.query, rr.Code, tc.want)
		}
	}
}
