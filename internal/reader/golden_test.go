package reader

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/gen2"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
)

// goldenScene is the fixed scene TestRoundGolden reads: two antennas 14 m
// apart, 48 tags on a grid near the first (the second energises about
// 30 of them) whose first EPC byte is 0x35, 0x3A, 0xE5 or 0xEA, so
// prefix masks split them, two of them riding a turntable, and one tag
// out of range of both.
func goldenScene() *scene.Scene {
	rng := rand.New(rand.NewSource(5))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	scn.AddAntenna(rf.Pt(14, 0, 2))
	for i := 0; i < 48; i++ {
		b := make([]byte, 12)
		rng.Read(b)
		b[0] = []byte{0x35, 0x3A, 0xE5, 0xEA}[i%4]
		var traj scene.Trajectory = scene.Stationary{P: rf.Pt(0.3+float64(i%8)*0.6, 0.4+float64(i/8)*0.5, 0)}
		if i < 2 {
			traj = scene.Circle{Center: rf.Pt(1.5, 1.5, 0), Radius: 0.2, Speed: 0.7, StartAngle: float64(i) * 3}
		}
		scn.AddTag(epc.New(b), traj)
	}
	scn.AddTag(epc.MustParse("350000000000000000000001"), scene.Stationary{P: rf.Pt(500, 0, 0)})
	return scn
}

// goldenHasher folds a round's Stats and reads into one digest.
type goldenHasher struct{ h hash.Hash }

func (g goldenHasher) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], uint64(v))
		g.h.Write(b[:])
	}
}

func (g goldenHasher) read(tr TagRead) {
	g.h.Write(tr.EPC.AppendBytes(nil))
	g.ints(int64(tr.EPC.Bits()), int64(tr.Time), int64(tr.Antenna), int64(tr.Channel),
		int64(math.Float64bits(tr.PhaseRad)), int64(math.Float64bits(tr.RSSdBm)))
}

func (g goldenHasher) stats(s Stats) {
	g.ints(int64(s.Rounds), int64(s.Slots), int64(s.Empties), int64(s.Collisions), int64(s.Singles), int64(s.Reads))
}

// goldenCut describes the fourth round of goldenRun: when it started, when
// its fifth read landed, and how many reads it made.
type goldenCut struct {
	start, fifth time.Duration
	reads        int
}

// goldenRun drives goldenScene through every kind of round the engine
// runs and returns the digest of everything they read. cut is the Budget
// of the fourth round (0 = none).
func goldenRun(cut time.Duration) (string, goldenCut) {
	scn := goldenScene()
	g := goldenHasher{sha256.New()}
	r := New(DefaultConfig(), scn)
	emit := func(tr TagRead) { g.read(tr) }

	hi, _ := epc.NewBits([]byte{0x30}, 4)
	lo, _ := epc.NewBits([]byte{0x50}, 4)
	a := gen2.SelectCmd{Action: gen2.ActionAssertNothing, MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset, Mask: hi}
	b := gen2.SelectCmd{Action: gen2.ActionAssertNothing, MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset + 4, Mask: lo}
	aAssertDeassert, bDeassert := a, b
	aAssertDeassert.Action = gen2.ActionAssertDeassert
	bDeassert.Action = gen2.ActionNothingDeassert

	step := func(opts RoundOpts, emit func(TagRead)) {
		r.RunRound(opts, emit)
		g.stats(r.Stats())
		r.Advance(700 * time.Millisecond)
	}
	// Read-all, a two-filter union and an intersecting pair.
	step(RoundOpts{Antenna: 1}, emit)
	step(RoundOpts{Antenna: 1, Filters: []gen2.SelectCmd{a, b}}, emit)
	step(RoundOpts{Antenna: 1, Filters: []gen2.SelectCmd{aAssertDeassert, bDeassert}}, emit)
	// A round cut by its Budget right after a singulation, then the
	// round that follows it.
	c := goldenCut{start: r.Now()}
	step(RoundOpts{Antenna: 1, Budget: cut}, func(tr TagRead) {
		if c.reads++; c.reads == 5 {
			c.fifth = tr.Time
		}
		g.read(tr)
	})
	step(RoundOpts{Antenna: 1}, emit)
	// Capture on, on both antennas.
	cfg := DefaultConfig()
	cfg.CaptureMarginDB = 3
	rc := New(cfg, scn)
	rc.Advance(r.Now())
	for _, ant := range []int{1, 2} {
		rc.RunRound(RoundOpts{Antenna: ant}, emit)
		g.stats(rc.Stats())
	}
	// Two antennas in port order.
	for _, tr := range r.InventoryAll() {
		g.read(tr)
	}
	g.stats(r.Stats())
	return hex.EncodeToString(g.h.Sum(nil))[:16], c
}

// TestRoundGolden pins the engine's random draw order: the digest of a
// fixed scene's Stats and reads (EPC, time, antenna, channel and the bits
// of phase and RSS) over read-all, a union, an intersection, a round cut
// right after a singulation, capture and two antennas. Any change in
// which tags draw, or in what order, moves it.
func TestRoundGolden(t *testing.T) {
	const want = "de475e773cf625e1"
	_, full := goldenRun(0)
	if full.reads <= 5 {
		t.Fatalf("the uncut fourth round read %d tags, want more than five", full.reads)
	}
	cut := full.fifth - full.start
	got, c := goldenRun(cut)
	if c.reads != 5 || c.fifth-c.start != cut {
		t.Fatalf("a %v budget ended the round after %d reads, want right after the fifth", cut, c.reads)
	}
	if got != want {
		t.Fatalf("golden digest = %s, want %s", got, want)
	}
}
