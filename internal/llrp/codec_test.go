package llrp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tagwatch/internal/epc"
)

func TestWriterReaderPrimitives(t *testing.T) {
	w := NewWriter(16)
	w.U8(0xAB)
	w.U16(0x1234)
	w.U32(0xDEADBEEF)
	w.U64(0x0102030405060708)
	w.Raw([]byte{9, 9})
	r := NewReader(w.Bytes())
	if r.U8() != 0xAB || r.U16() != 0x1234 || r.U32() != 0xDEADBEEF || r.U64() != 0x0102030405060708 {
		t.Fatal("primitive round trip failed")
	}
	if got := r.Raw(2); got[0] != 9 || got[1] != 9 {
		t.Fatal("raw round trip failed")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	r.U32() // fails
	if r.Err() == nil {
		t.Fatal("short read must error")
	}
	// Subsequent reads return zero without panicking.
	if r.U8() != 0 || r.U16() != 0 || r.U64() != 0 || r.Raw(3) != nil {
		t.Fatal("post-error reads must be zero")
	}
	r.Skip(5)
	if r.Raw(-1) != nil {
		t.Fatal("negative raw must be nil")
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.U32(1)
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("reset must clear")
	}
}

func TestMessageFrameRoundTrip(t *testing.T) {
	m := Message{Type: MsgKeepalive, ID: 77, Body: []byte{1, 2, 3}}
	frame := m.EncodeFrame()
	got, n, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Fatalf("consumed %d of %d", n, len(frame))
	}
	if got.Type != MsgKeepalive || got.ID != 77 || len(got.Body) != 3 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if _, _, err := DecodeFrame([]byte{1, 2}); err == nil {
		t.Fatal("short header must error")
	}
	m := Message{Type: MsgKeepalive, ID: 1}
	frame := m.EncodeFrame()
	// Corrupt version.
	bad := append([]byte(nil), frame...)
	bad[0] = 0x80 // version 2? actually sets rsvd bit; version bits 10-12
	bad[0] = byte(2 << 2)
	if _, _, err := DecodeFrame(bad); err == nil {
		t.Fatal("wrong version must error")
	}
	// Truncated body.
	long := Message{Type: MsgKeepalive, ID: 1, Body: make([]byte, 10)}.EncodeFrame()
	if _, _, err := DecodeFrame(long[:12]); err == nil {
		t.Fatal("truncated body must error")
	}
	// Invalid length field.
	badLen := append([]byte(nil), frame...)
	badLen[2], badLen[3], badLen[4], badLen[5] = 0, 0, 0, 3
	if _, _, err := DecodeFrame(badLen); err == nil {
		t.Fatal("undersized length must error")
	}
}

func TestLLRPStatusRoundTrip(t *testing.T) {
	resp := NewStatusResponse(MsgAddROSpecResponse, 5, LLRPStatus{Code: StatusParamError, Description: "bad mask"})
	st, err := DecodeStatus(resp)
	if err != nil {
		t.Fatal(err)
	}
	if st.Code != StatusParamError || st.Description != "bad mask" || st.OK() {
		t.Fatalf("status round trip: %+v", st)
	}
	if st.Error() == "" {
		t.Fatal("Error() must render")
	}
	ok := LLRPStatus{Code: StatusSuccess}
	if !ok.OK() {
		t.Fatal("success must be OK")
	}
	// A message without a status parameter errors.
	if _, err := DecodeStatus(Message{Type: MsgAddROSpecResponse}); err == nil {
		t.Fatal("missing status must error")
	}
}

func makeROSpec() ROSpec {
	mask, _ := epc.NewBits([]byte{0xA5, 0xC0}, 10)
	return ROSpec{
		ID:       42,
		Priority: 1,
		State:    ROSpecDisabled,
		Boundary: ROBoundarySpec{
			StartTrigger: StartTriggerImmediate,
			StopTrigger:  StopTriggerDuration,
			DurationMS:   5000,
		},
		AISpecs: []AISpec{
			{
				AntennaIDs:  []uint16{1, 2},
				StopTrigger: AISpecStopTrigger{Type: AIStopDuration, DurationMS: 1200},
				Inventories: []InventoryParameterSpec{{
					ID: 9,
					Commands: []C1G2InventoryCommand{{
						Session:  1,
						InitialQ: 4,
						Filters: []C1G2Filter{{
							Mask: C1G2TagInventoryMask{MemBank: epc.BankEPC, Pointer: 32, Mask: mask},
						}},
					}},
				}},
			},
			{
				AntennaIDs:  []uint16{3},
				StopTrigger: AISpecStopTrigger{Type: AIStopNull},
				Inventories: []InventoryParameterSpec{{ID: 10}},
			},
		},
	}
}

func TestROSpecRoundTrip(t *testing.T) {
	spec := makeROSpec()
	msg := NewAddROSpec(7, spec)
	got, err := DecodeAddROSpec(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Priority != 1 {
		t.Fatalf("header: %+v", got)
	}
	if got.Boundary != spec.Boundary {
		t.Fatalf("boundary: %+v vs %+v", got.Boundary, spec.Boundary)
	}
	if len(got.AISpecs) != 2 {
		t.Fatalf("AISpecs: %d", len(got.AISpecs))
	}
	a := got.AISpecs[0]
	if len(a.AntennaIDs) != 2 || a.AntennaIDs[0] != 1 || a.AntennaIDs[1] != 2 {
		t.Fatalf("antennas: %v", a.AntennaIDs)
	}
	if a.StopTrigger != (AISpecStopTrigger{Type: AIStopDuration, DurationMS: 1200}) {
		t.Fatalf("stop trigger: %+v", a.StopTrigger)
	}
	inv := a.Inventories[0]
	if inv.ID != 9 || len(inv.Commands) != 1 {
		t.Fatalf("inventory: %+v", inv)
	}
	cmd := inv.Commands[0]
	if cmd.Session != 1 || cmd.InitialQ != 4 || len(cmd.Filters) != 1 {
		t.Fatalf("command: %+v", cmd)
	}
	f := cmd.Filters[0]
	if f.Mask.MemBank != epc.BankEPC || f.Mask.Pointer != 32 || f.Mask.Mask.Bits() != 10 {
		t.Fatalf("filter: %+v", f)
	}
	wantMask, _ := epc.NewBits([]byte{0xA5, 0xC0}, 10)
	if f.Mask.Mask != wantMask {
		t.Fatalf("mask bits: %s", f.Mask.Mask)
	}
}

func TestAddROSpecMissingParam(t *testing.T) {
	if _, err := DecodeAddROSpec(Message{Type: MsgAddROSpec}); err == nil {
		t.Fatal("empty ADD_ROSPEC must error")
	}
}

func TestROSpecOpRoundTrip(t *testing.T) {
	m := NewROSpecOp(MsgEnableROSpec, 3, 42)
	if m.Type != MsgEnableROSpec {
		t.Fatal("type")
	}
	id, err := ROSpecIDOf(m)
	if err != nil || id != 42 {
		t.Fatalf("id=%d err=%v", id, err)
	}
	if _, err := ROSpecIDOf(Message{Body: []byte{1}}); err == nil {
		t.Fatal("short body must error")
	}
}

func TestTagReportRoundTrip96(t *testing.T) {
	tr := TagReportData{
		EPC:          epc.MustParse("30f4ab12cd0045e100000001"),
		ROSpecID:     42,
		AntennaID:    3,
		PeakRSSIdBm:  -61,
		ChannelIndex: 11,
		FirstSeenUTC: 1_700_000_000_000_000,
		TagSeenCount: 2,
	}
	tr.SetPhaseRadians(1.234)
	msg := NewROAccessReport(9, []TagReportData{tr})
	got, err := DecodeROAccessReport(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("reports: %d", len(got))
	}
	g := got[0]
	if g.EPC != tr.EPC || g.ROSpecID != 42 || g.AntennaID != 3 || g.PeakRSSIdBm != -61 ||
		g.ChannelIndex != 11 || g.FirstSeenUTC != tr.FirstSeenUTC || g.TagSeenCount != 2 {
		t.Fatalf("round trip: %+v", g)
	}
	if !g.HasPhase {
		t.Fatal("phase must survive")
	}
	if math.Abs(g.PhaseRadians()-1.234) > 0.001 {
		t.Fatalf("phase = %v, want ≈1.234", g.PhaseRadians())
	}
}

func TestTagReportRoundTripOddLength(t *testing.T) {
	// Non-96-bit EPCs ride in an EPCData TLV instead of the EPC-96 TV.
	code := epc.FromUint64(0b1011_0110_1, 9)
	tr := TagReportData{EPC: code, AntennaID: 1}
	got, err := DecodeROAccessReport(NewROAccessReport(1, []TagReportData{tr}))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].EPC != code {
		t.Fatalf("odd-length EPC: %s vs %s", got[0].EPC, code)
	}
	if got[0].HasPhase {
		t.Fatal("no phase was encoded")
	}
}

// opSpecResultReport is one TagReportData parameter, byte for byte, as a
// reader sends it while an AccessSpec left by another client is active:
// EPC, antenna, RSSI and phase interleaved with a C1G2ReadOpSpecResult
// (type 349) and a C1G2WriteOpSpecResult (type 350).
func opSpecResultReport() []byte {
	tlv := func(typ uint16, body ...byte) []byte {
		n := 4 + len(body)
		return append([]byte{byte(typ >> 8), byte(typ), byte(n >> 8), byte(n)}, body...)
	}
	var b []byte
	b = append(b, 0x80|13, 0x30, 0xf4, 0xab, 0x12, 0xcd, 0x00, 0x45, 0xe1, 0x00, 0x00, 0x00, 0x01) // EPC-96
	b = append(b, tlv(349, 0x00, 0x00, 0x07, 0x00, 0x02, 0xe2, 0x80, 0x11, 0x60)...)               // read: OK, OpSpecID 7, 2 words
	b = append(b, 0x80|1, 0x00, 0x02)                                                              // AntennaID 2
	b = append(b, 0x80|6, 0xc4)                                                                    // PeakRSSI -60 dBm
	b = append(b, tlv(1023, 0x00, 0x00, 0x65, 0x1a, 0x00, 0x00, 0x03, 0xed, 0x40, 0x00)...)        // Impinj phase, a quarter turn
	b = append(b, tlv(350, 0x00, 0x00, 0x08, 0x00, 0x01)...)                                       // write: OK, OpSpecID 8, 1 word
	return tlv(240, b...)
}

func TestTagReportSkipsOpSpecResults(t *testing.T) {
	got, err := DecodeROAccessReport(Message{Type: MsgROAccessReport, ID: 1, Body: opSpecResultReport()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("reports: %d", len(got))
	}
	g := got[0]
	if g.EPC != epc.MustParse("30f4ab12cd0045e100000001") || g.AntennaID != 2 || g.PeakRSSIdBm != -60 {
		t.Fatalf("report: %+v", g)
	}
	if !g.HasPhase || g.PhaseAngle16 != 0x4000 {
		t.Fatalf("phase: %v %#x", g.HasPhase, g.PhaseAngle16)
	}
}

func TestROAccessReportMany(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codes, _ := epc.RandomPopulation(rng, 64, 96)
	in := make([]TagReportData, len(codes))
	for i, c := range codes {
		in[i] = TagReportData{EPC: c, AntennaID: uint16(i%4 + 1), ChannelIndex: uint16(i % 16)}
		in[i].SetPhaseRadians(float64(i) * 0.1)
	}
	out, err := DecodeROAccessReport(NewROAccessReport(2, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("reports: %d vs %d", len(out), len(in))
	}
	for i := range in {
		if out[i].EPC != in[i].EPC || out[i].AntennaID != in[i].AntennaID {
			t.Fatalf("report %d mismatch", i)
		}
	}
}

func TestPhaseRadiansProperty(t *testing.T) {
	f := func(rad float64) bool {
		if math.IsNaN(rad) || math.IsInf(rad, 0) || math.Abs(rad) > 1e6 {
			return true
		}
		var tr TagReportData
		tr.SetPhaseRadians(rad)
		got := tr.PhaseRadians()
		// got must equal rad mod 2π within quantisation (2π/65536).
		diff := math.Mod(rad-got, 2*math.Pi)
		if diff < 0 {
			diff += 2 * math.Pi
		}
		if diff > math.Pi {
			diff = 2*math.Pi - diff
		}
		return diff < 2*math.Pi/65536+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderEventNotificationRoundTrip(t *testing.T) {
	s := ConnSuccess
	m := NewReaderEventNotification(1, UTCTimestamp{Microseconds: 123456}, &s)
	ev, err := DecodeReaderEventNotification(m)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Timestamp.Microseconds != 123456 {
		t.Fatalf("timestamp: %+v", ev.Timestamp)
	}
	if ev.ConnAttempt == nil || *ev.ConnAttempt != ConnSuccess {
		t.Fatalf("conn attempt: %+v", ev.ConnAttempt)
	}
	if ev.Timestamp.Time().UnixMicro() != 123456 {
		t.Fatal("Time() conversion")
	}
	// Without the connection event.
	m2 := NewReaderEventNotification(2, UTCTimestamp{Microseconds: 1}, nil)
	ev2, err := DecodeReaderEventNotification(m2)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.ConnAttempt != nil {
		t.Fatal("no conn attempt expected")
	}
}

func TestUnknownTVParameterRejected(t *testing.T) {
	// A TV parameter type outside the registry must fail cleanly.
	r := NewReader([]byte{0x80 | 0x55, 1, 2, 3})
	if _, ok := r.nextParam(); ok {
		t.Fatal("unknown TV type must not parse")
	}
	if r.Err() == nil {
		t.Fatal("error must be recorded")
	}
}

func TestMalformedTLVLength(t *testing.T) {
	// TLV claiming more bytes than remain.
	w := NewWriter(8)
	w.U16(uint16(ParamLLRPStatus))
	w.U16(60) // bogus length
	w.U32(0)
	r := NewReader(w.Bytes())
	if _, ok := r.nextParam(); ok {
		t.Fatal("overlong TLV must not parse")
	}
	// TLV with length < 4.
	w2 := NewWriter(8)
	w2.U16(uint16(ParamLLRPStatus))
	w2.U16(2)
	r2 := NewReader(w2.Bytes())
	if _, ok := r2.nextParam(); ok {
		t.Fatal("undersized TLV must not parse")
	}
}

func TestResponseTypeFor(t *testing.T) {
	cases := map[MessageType]MessageType{
		MsgAddROSpec:             MsgAddROSpecResponse,
		MsgEnableROSpec:          MsgEnableROSpecResponse,
		MsgStartROSpec:           MsgStartROSpecResponse,
		MsgStopROSpec:            MsgStopROSpecResponse,
		MsgDeleteROSpec:          MsgDeleteROSpecResponse,
		MsgDisableROSpec:         MsgDisableROSpecResponse,
		MsgCloseConnection:       MsgCloseConnectionResponse,
		MsgSetReaderConfig:       MsgSetReaderConfigResponse,
		MsgGetReaderCapabilities: MsgGetReaderCapabilitiesResponse,
	}
	for req, want := range cases {
		got, ok := responseTypeFor(req)
		if !ok || got != want {
			t.Errorf("responseTypeFor(%d) = %d/%v", req, got, ok)
		}
	}
	if _, ok := responseTypeFor(MsgKeepalive); ok {
		t.Fatal("keepalive has no response type (ack is separate)")
	}
}

func TestFuzzDecodeNoPanic(t *testing.T) {
	// Random bytes must never panic the decoders.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		if m, _, err := DecodeFrame(b); err == nil {
			DecodeROAccessReport(m)
			DecodeAddROSpec(m)
			DecodeStatus(m)
			DecodeReaderEventNotification(m)
		}
	}
}

func TestROSpecEventRoundTrip(t *testing.T) {
	m := NewROSpecEventNotification(9, UTCTimestamp{Microseconds: 777}, ROSpecEvent{
		Type: ROSpecEnded, ROSpecID: 42, Preempting: 7,
	})
	ev, err := DecodeReaderEventNotification(m)
	if err != nil {
		t.Fatal(err)
	}
	if ev.ROSpec == nil {
		t.Fatal("ROSpec event lost")
	}
	if ev.ROSpec.Type != ROSpecEnded || ev.ROSpec.ROSpecID != 42 || ev.ROSpec.Preempting != 7 {
		t.Fatalf("round trip: %+v", ev.ROSpec)
	}
	if ev.Timestamp.Microseconds != 777 {
		t.Fatal("timestamp lost")
	}
	if ev.ConnAttempt != nil {
		t.Fatal("no connection event expected")
	}
}

func TestCapabilitiesRoundTrip(t *testing.T) {
	caps := Capabilities{
		MaxAntennas:              4,
		ManufacturerPEN:          ImpinjPEN,
		Model:                    420,
		MaxSelectFiltersPerQuery: 8,
		SupportsPhaseReporting:   true,
	}
	m := NewGetReaderCapabilitiesResponse(3, LLRPStatus{Code: StatusSuccess}, caps)
	got, err := DecodeGetReaderCapabilitiesResponse(m)
	if err != nil {
		t.Fatal(err)
	}
	if got != caps {
		t.Fatalf("round trip: %+v vs %+v", got, caps)
	}
	// Status still decodable from the same message.
	st, err := DecodeStatus(m)
	if err != nil || !st.OK() {
		t.Fatalf("status: %+v %v", st, err)
	}
	// Phase-reporting flag independent.
	caps.SupportsPhaseReporting = false
	got2, err := DecodeGetReaderCapabilitiesResponse(NewGetReaderCapabilitiesResponse(4, LLRPStatus{}, caps))
	if err != nil || got2.SupportsPhaseReporting {
		t.Fatalf("flag handling: %+v %v", got2, err)
	}
}

func TestAllMessageNames(t *testing.T) {
	types := []MessageType{
		MsgGetReaderCapabilities, MsgGetReaderCapabilitiesResponse,
		MsgSetReaderConfig, MsgSetReaderConfigResponse,
		MsgCloseConnection, MsgCloseConnectionResponse,
		MsgAddROSpec, MsgAddROSpecResponse,
		MsgDeleteROSpec, MsgDeleteROSpecResponse,
		MsgStartROSpec, MsgStartROSpecResponse,
		MsgStopROSpec, MsgStopROSpecResponse,
		MsgEnableROSpec, MsgEnableROSpecResponse,
		MsgDisableROSpec, MsgDisableROSpecResponse,
		MsgROAccessReport, MsgKeepalive, MsgKeepaliveAck,
		MsgReaderEventNotification, MsgErrorMessage,
	}
	seen := map[string]bool{}
	for _, typ := range types {
		name := typ.Name()
		if name == "" || seen[name] {
			t.Fatalf("bad or duplicate name for %d: %q", typ, name)
		}
		if name[0] == 'M' && name[1] == 'E' { // MESSAGE_TYPE_n fallback
			t.Fatalf("named constant %d fell through to %q", typ, name)
		}
		seen[name] = true
	}
}
