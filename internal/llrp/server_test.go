package llrp

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/gen2"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
)

// startTestServer spins up a reader emulator over a small scene and
// returns a connected client.
func startTestServer(t *testing.T, seed int64, n int) (*Conn, *Server, []epc.EPC) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	codes, err := epc.RandomPopulation(rng, n, 96)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range codes {
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.5+float64(i%8)*0.3, 0.5+float64(i/8)*0.3, 0)})
	}
	conn, srv := serveScene(t, scn)
	return conn, srv, codes
}

// serveScene runs a reader emulator over scn and returns a connected
// client.
func serveScene(t *testing.T, scn *scene.Scene) (*Conn, *Server) {
	t.Helper()
	srv := NewServer(reader.New(reader.DefaultConfig(), scn), ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	conn, err := Dial(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, srv
}

// collectReports drains tag reports until idle for the given window or the
// deadline passes.
func collectReports(conn *Conn, idle, deadline time.Duration) []TagReportData {
	var out []TagReportData
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		select {
		case batch, ok := <-conn.Reports():
			if !ok {
				return out
			}
			out = append(out, batch...)
		case <-time.After(idle):
			return out
		case <-timer.C:
			return out
		}
	}
}

func basicROSpec(id uint32, durMS uint32) ROSpec {
	return ROSpec{
		ID: id,
		Boundary: ROBoundarySpec{
			StartTrigger: StartTriggerNull,
			StopTrigger:  StopTriggerDuration,
			DurationMS:   durMS,
		},
		AISpecs: []AISpec{{
			AntennaIDs:  []uint16{1},
			StopTrigger: AISpecStopTrigger{Type: AIStopDuration, DurationMS: durMS},
			Inventories: []InventoryParameterSpec{{ID: 1, Commands: []C1G2InventoryCommand{{Session: 1, InitialQ: 4}}}},
		}},
	}
}

func TestEndToEndInventoryOverTCP(t *testing.T) {
	conn, _, codes := startTestServer(t, 1, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	spec := basicROSpec(1, 500) // 500 ms of virtual inventory
	if err := conn.AddROSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := conn.EnableROSpec(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := conn.StartROSpec(ctx, 1); err != nil {
		t.Fatal(err)
	}
	reports := collectReports(conn, 300*time.Millisecond, 3*time.Second)
	if err := conn.StopROSpec(ctx, 1); err != nil {
		t.Fatal(err)
	}

	seen := map[epc.EPC]int{}
	for _, r := range reports {
		seen[r.EPC]++
		if r.AntennaID != 1 {
			t.Fatalf("report from antenna %d", r.AntennaID)
		}
		if !r.HasPhase {
			t.Fatal("phase reporting must be on")
		}
		if r.ChannelIndex < 1 || r.ChannelIndex > 16 {
			t.Fatalf("channel index %d out of 1..16", r.ChannelIndex)
		}
		if r.PeakRSSIdBm >= 0 || r.PeakRSSIdBm < -100 {
			t.Fatalf("implausible RSSI %d", r.PeakRSSIdBm)
		}
	}
	for _, c := range codes {
		// 500 ms at ≈20+ rounds/s of 8 tags: every tag read several times.
		if seen[c] < 3 {
			t.Fatalf("tag %s read %d times over 500 virtual ms", c, seen[c])
		}
	}
}

func TestSelectiveReadingOverTCP(t *testing.T) {
	conn, _, codes := startTestServer(t, 2, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	target := codes[3]
	spec := basicROSpec(2, 300)
	spec.AISpecs[0].Inventories[0].Commands[0].Filters = []C1G2Filter{{
		Mask: C1G2TagInventoryMask{
			MemBank: epc.BankEPC,
			Pointer: epc.EPCWordOffset,
			Mask:    target,
		},
	}}
	if err := conn.AddROSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := conn.EnableROSpec(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := conn.StartROSpec(ctx, 2); err != nil {
		t.Fatal(err)
	}
	reports := collectReports(conn, 300*time.Millisecond, 3*time.Second)
	if len(reports) == 0 {
		t.Fatal("no reports for selective reading")
	}
	for _, r := range reports {
		if r.EPC != target {
			t.Fatalf("selective reading leaked tag %s", r.EPC)
		}
	}
}

func TestImmediateStartTrigger(t *testing.T) {
	conn, _, _ := startTestServer(t, 3, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	spec := basicROSpec(3, 200)
	spec.Boundary.StartTrigger = StartTriggerImmediate
	if err := conn.AddROSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// Enable alone must start it.
	if err := conn.EnableROSpec(ctx, 3); err != nil {
		t.Fatal(err)
	}
	reports := collectReports(conn, 300*time.Millisecond, 3*time.Second)
	if len(reports) == 0 {
		t.Fatal("immediate trigger did not start inventory")
	}
}

func TestROSpecLifecycleErrors(t *testing.T) {
	conn, _, _ := startTestServer(t, 4, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Start before add.
	if err := conn.StartROSpec(ctx, 9); err == nil {
		t.Fatal("starting an unknown ROSpec must fail")
	}
	// Enable unknown.
	if err := conn.EnableROSpec(ctx, 9); err == nil {
		t.Fatal("enabling an unknown ROSpec must fail")
	}
	spec := basicROSpec(9, 100)
	if err := conn.AddROSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// Duplicate add.
	if err := conn.AddROSpec(ctx, spec); err == nil {
		t.Fatal("duplicate ADD_ROSPEC must fail")
	}
	// Start while disabled.
	if err := conn.StartROSpec(ctx, 9); err == nil {
		t.Fatal("starting a disabled ROSpec must fail")
	}
	// Delete clears it; re-add succeeds.
	if err := conn.DeleteROSpec(ctx, 9); err != nil {
		t.Fatal(err)
	}
	if err := conn.AddROSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// DeleteROSpec(0) wipes everything.
	if err := conn.DeleteROSpec(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := conn.EnableROSpec(ctx, 9); err == nil {
		t.Fatal("ROSpec must be gone after delete-all")
	}
}

func TestStopROSpecHaltsReports(t *testing.T) {
	conn, _, _ := startTestServer(t, 5, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	spec := basicROSpec(4, 60_000) // long-running
	if err := conn.AddROSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := conn.EnableROSpec(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if err := conn.StartROSpec(ctx, 4); err != nil {
		t.Fatal(err)
	}
	// Let it produce something, then stop.
	collectReports(conn, 50*time.Millisecond, 500*time.Millisecond)
	if err := conn.StopROSpec(ctx, 4); err != nil {
		t.Fatal(err)
	}
	// Drain anything in flight, then confirm silence.
	collectReports(conn, 100*time.Millisecond, 500*time.Millisecond)
	after := collectReports(conn, 150*time.Millisecond, 300*time.Millisecond)
	if len(after) != 0 {
		t.Fatalf("reports continued after STOP_ROSPEC: %d", len(after))
	}
}

func TestKeepaliveAutoAck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	eng := reader.New(reader.DefaultConfig(), scn)
	srv := NewServer(eng, ServerConfig{KeepaliveEvery: 30 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := Dial(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Survive several keepalive cycles: the connection stays healthy only
	// if the client acks (a real reader would disconnect otherwise; here we
	// just verify no error surfaces and requests still work).
	time.Sleep(150 * time.Millisecond)
	if err := conn.AddROSpec(ctx, basicROSpec(1, 10)); err != nil {
		t.Fatalf("connection unhealthy after keepalives: %v", err)
	}
}

func TestCloseConnection(t *testing.T) {
	conn, _, _ := startTestServer(t, 7, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := conn.CloseConnection(ctx); err != nil {
		t.Fatal(err)
	}
	if !conn.WaitClosed(time.Second) {
		t.Fatal("connection must close after CLOSE_CONNECTION")
	}
	// Post-close operations fail cleanly.
	if err := conn.AddROSpec(ctx, basicROSpec(8, 10)); err == nil {
		t.Fatal("operations on a closed connection must fail")
	}
}

func TestUnsupportedMessage(t *testing.T) {
	conn, _, _ := startTestServer(t, 8, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The emulator runs ROSpecs only: an AccessSpec request (ADD_,
	// DELETE_, ENABLE_ and DISABLE_ACCESSSPEC, types 40–43) is as foreign
	// to it as a made-up type, and each must be answered with an
	// ERROR_MESSAGE carrying StatusUnsupported rather than kill the
	// session.
	for i, typ := range []MessageType{40, 41, 42, 43, 999} {
		id := uint32(1000 + i)
		reply := make(chan Message, 1)
		conn.mu.Lock()
		conn.pending[id] = reply
		conn.mu.Unlock()
		if err := conn.send(Message{Type: typ, ID: id}); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-reply:
			if m.Type != MsgErrorMessage {
				t.Fatalf("type %d answered with %s, want ERROR_MESSAGE", typ, m.Type.Name())
			}
			st, err := DecodeStatus(m)
			if err != nil || st.Code != StatusUnsupported {
				t.Fatalf("type %d: status %+v (%v), want StatusUnsupported", typ, st, err)
			}
		case <-ctx.Done():
			t.Fatalf("type %d: no reply", typ)
		}
	}
	// The connection must still be usable.
	if err := conn.AddROSpec(ctx, basicROSpec(5, 10)); err != nil {
		t.Fatalf("connection broken after unsupported message: %v", err)
	}
}

func TestVirtualTimestampsAdvance(t *testing.T) {
	conn, srv, _ := startTestServer(t, 9, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := conn.AddROSpec(ctx, basicROSpec(1, 400)); err != nil {
		t.Fatal(err)
	}
	conn.EnableROSpec(ctx, 1)
	conn.StartROSpec(ctx, 1)
	reports := collectReports(conn, 300*time.Millisecond, 3*time.Second)
	if len(reports) < 2 {
		t.Fatalf("want several reports, got %d", len(reports))
	}
	var minTS, maxTS uint64
	for i, r := range reports {
		if i == 0 || r.FirstSeenUTC < minTS {
			minTS = r.FirstSeenUTC
		}
		if r.FirstSeenUTC > maxTS {
			maxTS = r.FirstSeenUTC
		}
	}
	span := time.Duration(maxTS-minTS) * time.Microsecond
	if span <= 0 || span > time.Second {
		t.Fatalf("virtual span = %v, want within the 400 ms spec duration", span)
	}
	if srv.Engine().Now() < 300*time.Millisecond {
		t.Fatalf("engine clock advanced only %v", srv.Engine().Now())
	}
}

func TestGetCapabilitiesOverTCP(t *testing.T) {
	conn, _, _ := startTestServer(t, 20, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	caps, err := conn.GetCapabilities(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if caps.MaxAntennas != 1 {
		t.Fatalf("antennas = %d", caps.MaxAntennas)
	}
	if caps.ManufacturerPEN != ImpinjPEN || !caps.SupportsPhaseReporting {
		t.Fatalf("capabilities: %+v", caps)
	}
	if caps.MaxSelectFiltersPerQuery < 1 {
		t.Fatal("filter capability missing")
	}
}

func TestROSpecEndEventDelivered(t *testing.T) {
	conn, _, _ := startTestServer(t, 21, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	spec := basicROSpec(6, 100) // ends itself after 100 virtual ms
	if err := conn.AddROSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	conn.EnableROSpec(ctx, 6)
	conn.StartROSpec(ctx, 6)
	var started, ended bool
	deadline := time.After(3 * time.Second)
	for !ended {
		select {
		case ev, ok := <-conn.Events():
			if !ok {
				t.Fatal("event stream died")
			}
			if ev.ROSpec == nil || ev.ROSpec.ROSpecID != 6 {
				continue
			}
			switch ev.ROSpec.Type {
			case ROSpecStarted:
				started = true
			case ROSpecEnded:
				ended = true
			}
		case <-conn.Reports():
			// drain
		case <-deadline:
			t.Fatal("no ROSpec end event within 3 s")
		}
	}
	if !started {
		t.Fatal("start event missing")
	}
}

func TestROSpecWithoutAntennasEnds(t *testing.T) {
	// AntennaIDs {0} means every antenna of the reader. With none, no
	// round runs and the virtual clock stands still, so neither duration
	// trigger can fire: the spec must end at once instead of spinning.
	rng := rand.New(rand.NewSource(22))
	conn, srv := serveScene(t, scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	spec := basicROSpec(3, 100)
	spec.AISpecs[0].AntennaIDs = []uint16{0}
	if err := conn.AddROSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := conn.EnableROSpec(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := conn.StartROSpec(ctx, 3); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case ev, ok := <-conn.Events():
			if !ok {
				t.Fatal("event stream died")
			}
			if ev.ROSpec != nil && ev.ROSpec.ROSpecID == 3 && ev.ROSpec.Type == ROSpecEnded {
				return
			}
		case <-deadline:
			t.Fatalf("no ROSpec end event within 2 s; virtual clock at %v", srv.Engine().Now())
		}
	}
}

func TestMultiFilterIntersectionOverTCP(t *testing.T) {
	// Two filters in one inventory command, Select/Unselect then
	// DoNothing/Unselect, intersect: only tags matching BOTH windows are
	// read.
	conn, srv, codes := startTestServer(t, 22, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	target := codes[5]
	maskA, err := target.Slice(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	maskB, err := target.Slice(40, 16)
	if err != nil {
		t.Fatal(err)
	}
	spec := basicROSpec(7, 300)
	spec.AISpecs[0].Inventories[0].Commands[0].Filters = []C1G2Filter{
		{Mask: C1G2TagInventoryMask{MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset + 0, Mask: maskA}, UnawareAction: ActionSelectUnselect},
		{Mask: C1G2TagInventoryMask{MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset + 40, Mask: maskB}, UnawareAction: ActionDoNothingUnselect},
	}
	if err := conn.AddROSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	conn.EnableROSpec(ctx, 7)
	conn.StartROSpec(ctx, 7)
	reports := collectReports(conn, 300*time.Millisecond, 3*time.Second)
	if len(reports) == 0 {
		t.Fatal("intersection read nothing")
	}
	for _, r := range reports {
		if !r.EPC.MatchBits(0, maskA) || !r.EPC.MatchBits(40, maskB) {
			t.Fatalf("tag %s fails the intersection", r.EPC)
		}
	}
	_ = srv
}

// TestUnawareActionsSteerSL pins what each LLRP state-unaware filter
// action does to the SL flag of a matching and of a non-matching tag,
// from either starting value.
func TestUnawareActionsSteerSL(t *testing.T) {
	hit := epc.MustParse("3a0000000000000000000001")
	miss := epc.MustParse("e50000000000000000000001")
	mask, err := hit.Slice(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := C1G2Filter{Mask: C1G2TagInventoryMask{MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset, Mask: mask}}
	// SL after the filter, from SL deasserted and from SL asserted.
	type after [2]bool
	for _, tc := range []struct {
		action      uint8
		match, miss after
	}{
		{ActionSelectUnselect, after{true, true}, after{false, false}},
		{ActionSelectDoNothing, after{true, true}, after{false, true}},
		{ActionDoNothingUnselect, after{false, true}, after{false, false}},
		{ActionUnselectDoNothing, after{false, false}, after{false, true}},
		{ActionUnselectSelect, after{false, false}, after{true, true}},
		{ActionDoNothingSelect, after{false, true}, after{true, true}},
	} {
		f.UnawareAction = tc.action
		for _, c := range []struct {
			code epc.EPC
			want after
		}{{hit, tc.match}, {miss, tc.miss}} {
			for from, want := range c.want {
				tag := gen2.NewTag(epc.NewMemory(c.code))
				set := gen2.ActionDeassertNothing
				if from == 1 {
					set = gen2.ActionAssertNothing
				}
				tag.ApplySelect(gen2.SelectCmd{Target: gen2.TargetSL, Action: set, MemBank: epc.BankEPC})
				tag.ApplySelect(filterToSelect(f))
				if tag.SL() != want {
					t.Errorf("action %d on %s from SL=%v: SL=%v, want %v", tc.action, c.code, from == 1, tag.SL(), want)
				}
			}
		}
	}
}

// TestAddROSpecRefusesUnrunnableFilters: an AISpec with more filters
// than the advertised limit, or with an action above 5, is refused with
// an error status and never installed.
func TestAddROSpecRefusesUnrunnableFilters(t *testing.T) {
	conn, srv, codes := startTestServer(t, 23, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	caps, err := conn.GetCapabilities(ctx)
	if err != nil {
		t.Fatal(err)
	}
	limit := int(caps.MaxSelectFiltersPerQuery)
	if limit != srv.Engine().Config().MaxSelectFilters || limit < 1 {
		t.Fatalf("advertised %d filters per query, the engine runs %d", limit, srv.Engine().Config().MaxSelectFilters)
	}
	filter := func(action uint8) C1G2Filter {
		return C1G2Filter{Mask: C1G2TagInventoryMask{MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset, Mask: codes[0]}, UnawareAction: action}
	}
	atLimit := make([]C1G2Filter, limit)
	for i := range atLimit {
		atLimit[i] = filter(ActionSelectDoNothing)
	}
	for i, tc := range []struct {
		name    string
		filters []C1G2Filter
		ok      bool
	}{
		{"at the limit", atLimit, true},
		{"one over the limit", append(atLimit, filter(ActionSelectDoNothing)), false},
		{"action 5", []C1G2Filter{filter(ActionDoNothingSelect)}, true},
		{"action 6", []C1G2Filter{filter(6)}, false},
	} {
		spec := basicROSpec(uint32(10+i), 100)
		spec.AISpecs[0].Inventories[0].Commands[0].Filters = tc.filters
		err := conn.AddROSpec(ctx, spec)
		if tc.ok != (err == nil) {
			t.Fatalf("%s: AddROSpec = %v", tc.name, err)
		}
		if !tc.ok {
			var st LLRPStatus
			if !errors.As(err, &st) || st.Code != StatusParamError {
				t.Fatalf("%s: refused with %v, want a parameter-error status", tc.name, err)
			}
			if conn.EnableROSpec(ctx, spec.ID) == nil {
				t.Fatalf("%s: a refused ROSpec was installed", tc.name)
			}
		}
	}
}

func TestProxyForwardsAndLogs(t *testing.T) {
	// reader emulator ← proxy ← client: the full chain must work and the
	// proxy must observe decoded traffic in both directions.
	rng := rand.New(rand.NewSource(40))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	codes, _ := epc.RandomPopulation(rng, 3, 96)
	for i, c := range codes {
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.5+float64(i)*0.3, 0.5, 0)})
	}
	srv := NewServer(reader.New(reader.DefaultConfig(), scn), ServerConfig{})
	upstreamAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var mu sync.Mutex
	seen := map[string]int{}
	proxy := NewProxy(upstreamAddr.String(), func(dir string, m Message) {
		mu.Lock()
		seen[dir+" "+m.Type.Name()]++
		mu.Unlock()
	})
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := Dial(ctx, proxyAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.AddROSpec(ctx, basicROSpec(1, 150)); err != nil {
		t.Fatal(err)
	}
	conn.EnableROSpec(ctx, 1)
	conn.StartROSpec(ctx, 1)
	reports := collectReports(conn, 300*time.Millisecond, 3*time.Second)
	if len(reports) == 0 {
		t.Fatal("no reports through the proxy")
	}

	mu.Lock()
	defer mu.Unlock()
	for _, want := range []string{
		"→reader ADD_ROSPEC",
		"←reader ADD_ROSPEC_RESPONSE",
		"←reader RO_ACCESS_REPORT",
		"←reader READER_EVENT_NOTIFICATION",
	} {
		if seen[want] == 0 {
			t.Fatalf("proxy never logged %q (saw %v)", want, seen)
		}
	}
}

func TestMessageSummaries(t *testing.T) {
	tr := TagReportData{EPC: epc.MustParse("30f4ab12cd0045e100000001"), AntennaID: 1, PeakRSSIdBm: -60}
	tr.SetPhaseRadians(1.0)
	cases := []Message{
		NewROAccessReport(1, []TagReportData{tr, tr, tr, tr, tr}),
		NewAddROSpec(2, makeROSpec()),
		NewROSpecOp(MsgStartROSpec, 3, 42),
		NewStatusResponse(MsgAddROSpecResponse, 4, LLRPStatus{Code: StatusSuccess}),
		NewStatusResponse(MsgAddROSpecResponse, 5, LLRPStatus{Code: StatusParamError, Description: "bad"}),
		NewKeepalive(6),
		NewROSpecEventNotification(7, UTCTimestamp{}, ROSpecEvent{Type: ROSpecEnded, ROSpecID: 9}),
	}
	for _, m := range cases {
		s := m.Summarize()
		if s == "" {
			t.Fatalf("empty summary for %s", m.Type.Name())
		}
	}
	if MessageType(999).Name() != "MESSAGE_TYPE_999" {
		t.Fatal("unknown message name")
	}
	// The big report notes the overflow.
	if s := cases[0].Summarize(); !strings.Contains(s, "…+2") {
		t.Fatalf("truncation marker missing: %s", s)
	}
	if !strings.Contains(cases[6].Summarize(), "ended") {
		t.Fatal("rospec event summary")
	}
}

func TestROReportSpecRoundTrip(t *testing.T) {
	spec := makeROSpec()
	spec.Report = &ROReportSpec{Trigger: ReportEveryN, N: 32}
	got, err := DecodeAddROSpec(NewAddROSpec(1, spec))
	if err != nil {
		t.Fatal(err)
	}
	if got.Report == nil || got.Report.Trigger != ReportEveryN || got.Report.N != 32 {
		t.Fatalf("report spec: %+v", got.Report)
	}
	// Absent by default.
	plain, err := DecodeAddROSpec(NewAddROSpec(2, makeROSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report != nil {
		t.Fatal("no report spec expected")
	}
}

func TestReportBatchingOverTCP(t *testing.T) {
	conn, _, _ := startTestServer(t, 41, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	spec := basicROSpec(1, 400)
	spec.Report = &ROReportSpec{Trigger: ReportEveryN, N: 24}
	if err := conn.AddROSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	conn.EnableROSpec(ctx, 1)
	conn.StartROSpec(ctx, 1)

	var batches []int
	deadline := time.After(3 * time.Second)
collect:
	for {
		select {
		case batch, ok := <-conn.Reports():
			if !ok {
				break collect
			}
			batches = append(batches, len(batch))
		case ev := <-conn.Events():
			if ev.ROSpec != nil && ev.ROSpec.Type == ROSpecEnded {
				// Drain everything in flight, then stop.
				for {
					select {
					case batch := <-conn.Reports():
						batches = append(batches, len(batch))
						continue
					case <-time.After(150 * time.Millisecond):
					}
					break
				}
				break collect
			}
		case <-deadline:
			break collect
		}
	}
	if len(batches) < 2 {
		t.Fatalf("batches = %v", batches)
	}
	// All but the final flush must carry at least N reports (6 tags/round
	// → 4 rounds per batch).
	for _, n := range batches[:len(batches)-1] {
		if n < 24 {
			t.Fatalf("mid-stream batch of %d < N=24 (%v)", n, batches)
		}
	}
}

// TestReportEveryNFlushesInsideRound: one inventory round over 30 tags
// with a report every 8 tags sends reports of 8, 8, 8 and then the
// remaining 6 as the round ends.
func TestReportEveryNFlushesInsideRound(t *testing.T) {
	conn, srv, _ := startTestServer(t, 42, 30)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	spec := basicROSpec(1, 1) // the spec ends after its first round
	spec.AISpecs[0].StopTrigger = AISpecStopTrigger{Type: AIStopNull}
	spec.Report = &ROReportSpec{Trigger: ReportEveryN, N: 8}
	if err := conn.AddROSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	conn.EnableROSpec(ctx, 1)
	conn.StartROSpec(ctx, 1)
	var sizes []int
	deadline := time.After(3 * time.Second)
	for ended := false; !ended; {
		select {
		case batch := <-conn.Reports():
			sizes = append(sizes, len(batch))
		case ev := <-conn.Events():
			ended = ev.ROSpec != nil && ev.ROSpec.Type == ROSpecEnded
		case <-deadline:
			t.Fatalf("no end event; reports so far %v", sizes)
		}
	}
	// The delete barrier: every report sent before its response is queued.
	if err := conn.DeleteROSpec(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for len(conn.Reports()) > 0 {
		sizes = append(sizes, len(<-conn.Reports()))
	}
	srv.Close() // joins the runner, so its engine counters are settled
	if st := srv.Engine().Stats(); st.Rounds != 1 || st.Reads != 30 {
		t.Fatalf("the spec ran %d rounds reading %d tags, want 1 round over all 30", st.Rounds, st.Reads)
	}
	if want := []int{8, 8, 8, 6}; !slices.Equal(sizes, want) {
		t.Fatalf("report sizes %v, want %v", sizes, want)
	}
}

func TestSetKeepaliveOverTCP(t *testing.T) {
	conn, _, _ := startTestServer(t, 42, 2) // server default: no keepalives
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// No keepalives yet.
	time.Sleep(80 * time.Millisecond)
	// Enable 25 ms keepalives; the connection must keep auto-acking and
	// stay healthy through several periods.
	if err := conn.SetKeepalive(ctx, 25*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := conn.AddROSpec(ctx, basicROSpec(1, 10)); err != nil {
		t.Fatalf("connection unhealthy after keepalives: %v", err)
	}
	// Disable again.
	if err := conn.SetKeepalive(ctx, 0); err != nil {
		t.Fatal(err)
	}
}

func TestKeepaliveSpecRoundTrip(t *testing.T) {
	m := NewSetReaderConfig(1, &KeepaliveSpec{Periodic: true, Period: 1500 * time.Millisecond})
	ka, err := DecodeSetReaderConfig(m)
	if err != nil {
		t.Fatal(err)
	}
	if ka == nil || !ka.Periodic || ka.Period != 1500*time.Millisecond {
		t.Fatalf("round trip: %+v", ka)
	}
	none, err := DecodeSetReaderConfig(NewSetReaderConfig(2, nil))
	if err != nil || none != nil {
		t.Fatalf("absent spec: %+v %v", none, err)
	}
}

func TestSecondClientRefused(t *testing.T) {
	conn, srv, _ := startTestServer(t, 43, 2)
	_ = conn // first client holds the reader
	addr := srv.lis.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := Dial(ctx, addr); err == nil {
		t.Fatal("second controlling client must be refused")
	}
	// After the first client leaves, a new one succeeds.
	conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
		c2, err := Dial(ctx2, addr)
		cancel2()
		if err == nil {
			c2.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("reconnect after release failed: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDialFailures(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	// Nothing listening.
	if _, err := Dial(ctx, "127.0.0.1:1"); err == nil {
		t.Fatal("dial to a dead port must fail")
	}
	// A listener that never sends the connection event: Dial must respect
	// the context deadline.
	lis, err := netListen(t)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		c, err := lis.Accept()
		if err == nil {
			defer c.Close()
			time.Sleep(2 * time.Second)
		}
	}()
	shortCtx, cancel2 := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel2()
	if _, err := Dial(shortCtx, lis.Addr().String()); err == nil {
		t.Fatal("dial without a connection event must time out")
	}
}

func TestProxyUpstreamUnreachable(t *testing.T) {
	proxy := NewProxy("127.0.0.1:1", nil) // dead upstream
	addr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := Dial(ctx, addr.String()); err == nil {
		t.Fatal("proxy with dead upstream must not complete the LLRP handshake")
	}
}

func TestWaitClosedTimesOut(t *testing.T) {
	conn, _, _ := startTestServer(t, 44, 1)
	if conn.WaitClosed(50 * time.Millisecond) {
		t.Fatal("healthy connection must not report closed")
	}
	conn.Close()
	if !conn.WaitClosed(time.Second) {
		t.Fatal("closed connection must report closed")
	}
}

// netListen opens an ephemeral TCP listener for handshake tests.
func netListen(t *testing.T) (net.Listener, error) {
	t.Helper()
	return net.Listen("tcp", "127.0.0.1:0")
}
