package core

import (
	"context"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/llrp"
	"tagwatch/internal/llrp/llrptest"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
	"tagwatch/internal/schedule"
)

// gridScene is n stationary tags on a grid under one antenna; the same
// seed builds the same scene.
func gridScene(t *testing.T, seed int64, n int) (*scene.Scene, []epc.EPC) {
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
	return scn, codes
}

// startLLRPRig spins up a reader emulator over TCP plus a connected
// LLRPDevice.
func startLLRPRig(t *testing.T, seed int64, n int) (*LLRPDevice, *llrp.Server, []epc.EPC) {
	t.Helper()
	scn, codes := gridScene(t, seed, n)
	eng := reader.New(reader.DefaultConfig(), scn)
	srv := llrp.NewServer(eng, llrp.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	conn, err := llrp.Dial(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return NewLLRPDevice(conn), srv, codes
}

// collect returns an emit that copies every batch onto *dst: a batch is
// valid only during the call.
func collect(dst *[]Reading) func([]Reading) {
	return func(batch []Reading) { *dst = append(*dst, batch...) }
}

func TestLLRPDeviceReadAll(t *testing.T) {
	dev, _, codes := startLLRPRig(t, 1, 6)
	var reads []Reading
	if err := dev.ReadAll(collect(&reads)); err != nil {
		t.Fatalf("ReadAll over a healthy link: %v", err)
	}
	seen := map[epc.EPC]int{}
	for _, r := range reads {
		seen[r.EPC]++
		if r.Antenna != 1 {
			t.Fatalf("antenna = %d", r.Antenna)
		}
		if r.Channel < 0 || r.Channel > 15 {
			t.Fatalf("channel = %d", r.Channel)
		}
		if r.PhaseRad < 0 || r.PhaseRad >= 2*3.15 {
			t.Fatalf("phase = %v", r.PhaseRad)
		}
	}
	for _, c := range codes {
		if seen[c] == 0 {
			t.Fatalf("tag %s never read over LLRP", c)
		}
	}
	if dev.Now() <= 0 {
		t.Fatal("device clock must advance from report timestamps")
	}
}

func TestLLRPDeviceReadSelective(t *testing.T) {
	dev, _, codes := startLLRPRig(t, 2, 8)
	target := codes[2]
	masks := []schedule.Bitmask{{Mask: target, Pointer: 0}}
	var reads []Reading
	if err := dev.ReadSelective(masks, 400*time.Millisecond, collect(&reads)); err != nil {
		t.Fatalf("ReadSelective over a healthy link: %v", err)
	}
	if len(reads) == 0 {
		t.Fatal("selective reading returned nothing")
	}
	for _, r := range reads {
		if r.EPC != target {
			t.Fatalf("selective reading leaked %s", r.EPC)
		}
	}
	// Degenerate inputs.
	reads = nil
	if err := dev.ReadSelective(nil, time.Second, collect(&reads)); reads != nil || err != nil {
		t.Fatal("no masks must read nothing")
	}
	if err := dev.ReadSelective(masks, 0, collect(&reads)); reads != nil || err != nil {
		t.Fatal("zero dwell must read nothing")
	}
}

// TestLLRPDeviceEmitsPerReport: a multi-round selective ROSpec reaches
// emit one RO_ACCESS_REPORT at a time while it runs, not as one batch at
// its end, and the batches add up to exactly what the reader read.
func TestLLRPDeviceEmitsPerReport(t *testing.T) {
	dev, srv, codes := startLLRPRig(t, 4, 8)
	masks := []schedule.Bitmask{{Mask: codes[1]}, {Mask: codes[5]}}
	var batches int
	var reads []Reading
	err := dev.ReadSelective(masks, 400*time.Millisecond, func(batch []Reading) {
		batches++
		if len(batch) == 0 {
			t.Error("empty batch emitted")
		}
		reads = append(reads, batch...)
	})
	if err != nil {
		t.Fatalf("ReadSelective over a healthy link: %v", err)
	}
	if batches < 2 {
		t.Fatalf("a multi-round ROSpec emitted %d batches, want one per report", batches)
	}
	for i, r := range reads {
		if r.EPC != codes[1] && r.EPC != codes[5] {
			t.Fatalf("selective reading leaked %s", r.EPC)
		}
		if i > 0 && r.Time < reads[i-1].Time {
			t.Fatalf("reading %d at %v emitted after one at %v", i, r.Time, reads[i-1].Time)
		}
	}
	if last := reads[len(reads)-1].Time; dev.Now() != last {
		t.Fatalf("device clock %v, want the last reading's %v", dev.Now(), last)
	}
	srv.Close() // joins the ROSpec runner, so its engine counters are settled
	if st := srv.Engine().Stats(); st.Reads != len(reads) {
		t.Fatalf("reader read %d tags in %d rounds, the batches carry %d readings", st.Reads, st.Rounds, len(reads))
	}
}

// TestUnionRoundsAcrossDevices: one plan at the default filter limit
// of 2, run over the simulator in-process and over LLRP to the emulator.
// The masks cover one tag each, so a group's masks have disjoint covers:
// an intersection would read nothing, and a round that reads more than
// one tag is a union. On both devices every read tag is covered by a
// mask of the plan, every covered tag is read, and the reader reads more
// tags than it runs rounds.
func TestUnionRoundsAcrossDevices(t *testing.T) {
	const seed, n = 5, 12
	scn, codes := gridScene(t, seed, n)
	sim := NewSimDevice(reader.New(reader.DefaultConfig(), scn))
	wire, srv, _ := startLLRPRig(t, seed, n)
	masks := []schedule.Bitmask{{Mask: codes[1]}, {Mask: codes[4]}, {Mask: codes[7]}}
	for _, d := range []struct {
		name  string
		dev   Device
		stats func() reader.Stats
	}{
		{"sim", sim, sim.R.Stats},
		// Closing the server joins its ROSpec runner, settling the counters.
		{"llrp", wire, func() reader.Stats { srv.Close(); return srv.Engine().Stats() }},
	} {
		seen := map[epc.EPC]int{}
		err := d.dev.ReadSelective(masks, 600*time.Millisecond, func(batch []Reading) {
			for _, r := range batch {
				seen[r.EPC]++
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		for code := range seen {
			covered := false
			for _, m := range masks {
				covered = covered || m.Covers(code)
			}
			if !covered {
				t.Fatalf("%s: read %s, which no mask covers", d.name, code)
			}
		}
		for _, m := range masks {
			if seen[m.Mask] == 0 {
				t.Fatalf("%s: %s never read during the dwell (reads %v)", d.name, m, seen)
			}
		}
		if st := d.stats(); st.Reads <= st.Rounds {
			t.Fatalf("%s: %d reads in %d rounds; a union round reads two tags", d.name, st.Reads, st.Rounds)
		}
	}
	if wire.maxFilters != 2 {
		t.Fatalf("LLRPDevice runs %d filters per round, the emulator takes 2", wire.maxFilters)
	}
}

func TestTagwatchOverLLRP(t *testing.T) {
	// The full middleware driving a reader over the wire: one complete
	// cycle must produce Phase I readings, assessments and a Phase II.
	dev, _, _ := startLLRPRig(t, 3, 6)
	cfg := DefaultConfig()
	cfg.PhaseIIDwell = 300 * time.Millisecond
	tw := New(cfg, dev)
	rep := tw.RunCycle()
	if len(rep.PhaseIReads) == 0 {
		t.Fatal("Phase I over LLRP read nothing")
	}
	if len(rep.Present) == 0 {
		t.Fatal("no tags present")
	}
	if len(rep.PhaseIIReads) == 0 {
		t.Fatal("Phase II over LLRP read nothing")
	}
	// Cold start: everything looks mobile, so the cycle must have either
	// fallen back or scheduled every present tag.
	if !rep.FellBack && len(rep.Targets) == 0 {
		t.Fatal("cold-start cycle must target or fall back")
	}
}

// script answers the request types a barrier test cares about; each
// entry sends its own reply. Every other request succeeds.
type script map[llrp.MessageType]func(s *llrptest.Session, req llrp.Message, id uint32)

// scriptedDevice connects an LLRPDevice to a scripted reader.
func scriptedDevice(t *testing.T, sc script) *LLRPDevice {
	t.Helper()
	addr := llrptest.Listen(t, func(s *llrptest.Session, req llrp.Message) bool {
		f := sc[req.Type]
		if f == nil {
			return s.Reply(req, llrp.StatusSuccess) == nil
		}
		id, _ := llrp.ROSpecIDOf(req)
		f(s, req, id)
		return true
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := llrp.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return NewLLRPDevice(conn)
}

// tagReport is one sighting of the i-th test tag under an ROSpec.
func tagReport(i int, rospecID uint32) llrp.TagReportData {
	code := make([]byte, 12)
	binary.BigEndian.PutUint32(code[8:], uint32(i+1))
	return llrp.TagReportData{
		EPC:          epc.New(code),
		ROSpecID:     rospecID,
		AntennaID:    1,
		ChannelIndex: 1,
		FirstSeenUTC: uint64(1_000_000 + i),
	}
}

// startThen answers START and then runs more of the script.
func startThen(then func(s *llrptest.Session, id uint32)) func(*llrptest.Session, llrp.Message, uint32) {
	return func(s *llrptest.Session, req llrp.Message, id uint32) {
		if s.Reply(req, llrp.StatusSuccess) == nil {
			then(s, id)
		}
	}
}

// TestLLRPDeviceBarrierCollectsLateReports: a report the reader sends
// after ROSpecEnded but before answering DELETE_ROSPEC belongs to this
// ROSpec and is emitted within the same call.
func TestLLRPDeviceBarrierCollectsLateReports(t *testing.T) {
	dev := scriptedDevice(t, script{
		llrp.MsgStartROSpec: startThen(func(s *llrptest.Session, id uint32) {
			_ = s.Report(tagReport(0, id))
			_ = s.Ended(id)
		}),
		llrp.MsgDeleteROSpec: func(s *llrptest.Session, req llrp.Message, id uint32) {
			_ = s.Report(tagReport(1, id))
			_ = s.Reply(req, llrp.StatusSuccess)
		},
	})
	var reads []Reading
	if err := dev.ReadAll(collect(&reads)); err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(reads) != 2 || reads[0].EPC != tagReport(0, 0).EPC || reads[1].EPC != tagReport(1, 0).EPC {
		t.Fatalf("emitted %v, want the report before the end event and the one before the delete response", reads)
	}
}

// TestLLRPDeviceDiscardsStrayReports: tag reports naming another
// ROSpec are counted and never emitted; a report with no ROSpecID
// belongs to the open spec, and a report of strays alone emits nothing.
func TestLLRPDeviceDiscardsStrayReports(t *testing.T) {
	dev := scriptedDevice(t, script{
		llrp.MsgStartROSpec: startThen(func(s *llrptest.Session, id uint32) {
			_ = s.Report(tagReport(0, id+5), tagReport(1, id), tagReport(2, id+5), tagReport(3, 0))
			_ = s.Report(tagReport(4, id+1))
			_ = s.Ended(id)
		}),
	})
	var reads []Reading
	err := dev.ReadAll(func(batch []Reading) {
		if len(batch) == 0 {
			t.Error("empty batch emitted")
		}
		reads = append(reads, batch...)
	})
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(reads) != 2 || reads[0].EPC != tagReport(1, 0).EPC || reads[1].EPC != tagReport(3, 0).EPC {
		t.Fatalf("emitted %v, want tags 1 and 3 only", reads)
	}
	if got := dev.Discarded(); got != 3 {
		t.Fatalf("Discarded() = %d, want the 3 stray tag reports", got)
	}
}

// TestLLRPDeviceBarrierDrainsFullQueue: more reports than the conn's
// 256-slot channel holds, all sent ahead of the DELETE_ROSPEC response,
// arrive without deadlocking the read loop behind the response.
func TestLLRPDeviceBarrierDrainsFullQueue(t *testing.T) {
	const n = 600
	dev := scriptedDevice(t, script{
		llrp.MsgStartROSpec: startThen(func(s *llrptest.Session, id uint32) { _ = s.Ended(id) }),
		llrp.MsgDeleteROSpec: func(s *llrptest.Session, req llrp.Message, id uint32) {
			for i := 0; i < n; i++ {
				_ = s.Report(tagReport(i, id))
			}
			_ = s.Reply(req, llrp.StatusSuccess)
		},
	})
	var reads []Reading
	if err := dev.ReadAll(collect(&reads)); err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(reads) != n {
		t.Fatalf("emitted %d readings, want %d", len(reads), n)
	}
}

// TestLLRPDeviceIdleGapWithoutEndEvents: a reader that never sends end
// events is stopped after the idle gap, and its reports are kept.
func TestLLRPDeviceIdleGapWithoutEndEvents(t *testing.T) {
	var stopped atomic.Bool
	dev := scriptedDevice(t, script{
		llrp.MsgStartROSpec: startThen(func(s *llrptest.Session, id uint32) { _ = s.Report(tagReport(0, id)) }),
		llrp.MsgStopROSpec: func(s *llrptest.Session, req llrp.Message, id uint32) {
			stopped.Store(true)
			_ = s.Reply(req, llrp.StatusSuccess)
		},
	})
	var reads []Reading
	start := time.Now()
	if err := dev.ReadAll(collect(&reads)); err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(reads) != 1 || !stopped.Load() {
		t.Fatalf("emitted %d readings, stopped=%v; want 1 reading and a STOP_ROSPEC", len(reads), stopped.Load())
	}
	if el := time.Since(start); el < idleGap {
		t.Fatalf("returned after %v, before the %v idle gap", el, idleGap)
	}
}

// TestLLRPDeviceFailedDeleteIsAnError: a rejected DELETE_ROSPEC is the
// call's error, returned after the spec's reports were emitted.
func TestLLRPDeviceFailedDeleteIsAnError(t *testing.T) {
	dev := scriptedDevice(t, script{
		llrp.MsgStartROSpec: startThen(func(s *llrptest.Session, id uint32) {
			_ = s.Report(tagReport(0, id))
			_ = s.Ended(id)
		}),
		llrp.MsgDeleteROSpec: func(s *llrptest.Session, req llrp.Message, id uint32) {
			_ = s.Reply(req, llrp.StatusFieldError)
		},
	})
	var reads []Reading
	err := dev.ReadAll(collect(&reads))
	if err == nil || !strings.Contains(err.Error(), "delete ROSpec") {
		t.Fatalf("ReadAll = %v, want the delete's error", err)
	}
	if len(reads) != 1 {
		t.Fatalf("emitted %d readings before the failed delete, want 1", len(reads))
	}
}

// TestLLRPDeviceAsksFilterLimitOnce: a session that only reads everything
// never sends GET_READER_CAPABILITIES; a selective one sends it once,
// before its first ROSpec, and groups the masks by the limit it reports,
// each AISpec's filters uniting their masks.
func TestLLRPDeviceAsksFilterLimitOnce(t *testing.T) {
	var asked atomic.Int32
	var mu sync.Mutex
	var specs []llrp.ROSpec
	sc := script{
		llrp.MsgGetReaderCapabilities: func(s *llrptest.Session, req llrp.Message, _ uint32) {
			asked.Add(1)
			caps := llrp.Capabilities{MaxSelectFiltersPerQuery: 3}
			_ = s.Send(llrp.NewGetReaderCapabilitiesResponse(req.ID, llrp.LLRPStatus{}, caps))
		},
		llrp.MsgAddROSpec: func(s *llrptest.Session, req llrp.Message, _ uint32) {
			spec, err := llrp.DecodeAddROSpec(req)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			specs = append(specs, spec)
			mu.Unlock()
			_ = s.Reply(req, llrp.StatusSuccess)
		},
		llrp.MsgStartROSpec: startThen(func(s *llrptest.Session, id uint32) { _ = s.Ended(id) }),
	}
	dev := scriptedDevice(t, sc)
	for i := 0; i < 3; i++ {
		if err := dev.ReadAll(func([]Reading) {}); err != nil {
			t.Fatal(err)
		}
	}
	if n := asked.Load(); n != 0 {
		t.Fatalf("a read-everything session asked for capabilities %d times", n)
	}
	var masks []schedule.Bitmask
	for i := 0; i < 5; i++ {
		masks = append(masks, schedule.Bitmask{Mask: tagReport(i, 0).EPC})
	}
	for i := 0; i < 2; i++ {
		if err := dev.ReadSelective(masks, 200*time.Millisecond, func([]Reading) {}); err != nil {
			t.Fatal(err)
		}
	}
	if n := asked.Load(); n != 1 {
		t.Fatalf("two selective ROSpecs asked for capabilities %d times, want once", n)
	}
	mu.Lock()
	last := specs[len(specs)-1]
	mu.Unlock()
	var got [][]uint8
	for _, ai := range last.AISpecs {
		var actions []uint8
		for _, f := range ai.Inventories[0].Commands[0].Filters {
			actions = append(actions, f.UnawareAction)
		}
		got = append(got, actions)
	}
	want := [][]uint8{
		{llrp.ActionSelectUnselect, llrp.ActionSelectDoNothing, llrp.ActionSelectDoNothing},
		{llrp.ActionSelectUnselect, llrp.ActionSelectDoNothing},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("five masks at a limit of 3 built AISpecs with actions %v, want %v", got, want)
	}
}

// TestLLRPDeviceFilterLimitFailure: a reader that refuses
// GET_READER_CAPABILITIES fails the selective read before any ROSpec is
// installed.
func TestLLRPDeviceFilterLimitFailure(t *testing.T) {
	var added atomic.Int32
	dev := scriptedDevice(t, script{
		llrp.MsgGetReaderCapabilities: func(s *llrptest.Session, req llrp.Message, _ uint32) {
			_ = s.Reply(req, llrp.StatusDeviceError)
		},
		llrp.MsgAddROSpec: func(s *llrptest.Session, req llrp.Message, _ uint32) {
			added.Add(1)
			_ = s.Reply(req, llrp.StatusSuccess)
		},
	})
	masks := []schedule.Bitmask{{Mask: tagReport(0, 0).EPC}}
	err := dev.ReadSelective(masks, 200*time.Millisecond, func([]Reading) {})
	if err == nil || !strings.Contains(err.Error(), "capabilities") {
		t.Fatalf("ReadSelective = %v, want the capabilities error", err)
	}
	if added.Load() != 0 {
		t.Fatal("an ROSpec was installed without a filter limit")
	}
}
