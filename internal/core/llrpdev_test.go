package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/llrp"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
	"tagwatch/internal/schedule"
)

// startLLRPRig spins up a reader emulator over TCP plus a connected
// LLRPDevice.
func startLLRPRig(t *testing.T, seed int64, n int) (*LLRPDevice, *llrp.Server, []epc.EPC) {
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
