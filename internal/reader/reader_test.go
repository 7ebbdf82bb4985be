package reader

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tagwatch/internal/aloha"
	"tagwatch/internal/epc"
	"tagwatch/internal/gen2"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
	"tagwatch/internal/stats"
)

// newRig builds a scene with one antenna at the origin's mast and n
// stationary tags on a 2 m grid nearby, plus a reader.
func newRig(t *testing.T, seed int64, n int) (*Reader, []epc.EPC) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := rf.DefaultParams()
	p.PhaseNoiseStd = 0.05
	scn := scene.New(rf.NewChannel(p, rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	codes, err := epc.RandomPopulation(rng, n, 96)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range codes {
		x := 0.5 + float64(i%8)*0.3
		y := 0.5 + float64(i/8)*0.3
		scn.AddTag(c, scene.Stationary{P: rf.Pt(x, y, 0)})
	}
	return New(DefaultConfig(), scn), codes
}

// roundReads runs one round and collects what it read.
func roundReads(r *Reader, opts RoundOpts) ([]TagRead, time.Duration) {
	var reads []TagRead
	d := r.RunRound(opts, func(tr TagRead) { reads = append(reads, tr) })
	return reads, d
}

func TestSingleTagRound(t *testing.T) {
	r, codes := newRig(t, 1, 1)
	reads, d := roundReads(r, RoundOpts{Antenna: 1})
	if len(reads) != 1 {
		t.Fatalf("reads = %d, want 1", len(reads))
	}
	if reads[0].EPC != codes[0] {
		t.Fatalf("read EPC %s, want %s", reads[0].EPC, codes[0])
	}
	if reads[0].Antenna != 1 {
		t.Fatalf("antenna = %d", reads[0].Antenna)
	}
	if d < r.Config().StartupCost {
		t.Fatalf("round duration %v below start-up cost", d)
	}
	// One tag should cost little beyond τ₀: < 40 ms total.
	if d > 40*time.Millisecond {
		t.Fatalf("single-tag round took %v", d)
	}
}

func TestRoundReadsEveryTagExactlyOnce(t *testing.T) {
	for _, n := range []int{5, 20, 40} {
		r, codes := newRig(t, int64(n), n)
		reads, _ := roundReads(r, RoundOpts{Antenna: 1})
		got := map[epc.EPC]int{}
		for _, rd := range reads {
			got[rd.EPC]++
		}
		for _, c := range codes {
			if got[c] != 1 {
				t.Fatalf("n=%d: tag %s read %d times, want 1", n, c, got[c])
			}
		}
	}
}

func TestConsecutiveRoundsKeepReading(t *testing.T) {
	r, codes := newRig(t, 3, 10)
	for round := 0; round < 5; round++ {
		reads, _ := roundReads(r, RoundOpts{Antenna: 1})
		if len(reads) != len(codes) {
			t.Fatalf("round %d read %d tags, want %d", round, len(reads), len(codes))
		}
	}
}

func TestContentionSlotsWithinModelBounds(t *testing.T) {
	// Channel contention is real but bounded: collecting n tags needs at
	// least e slots per tag (re-randomised slotted-ALOHA lower bound; the
	// engine's spec-faithful QueryAdjust redraws operate in this regime)
	// and at most the paper's coupon-collector upper model e·ln n (§2.2,
	// Eqn. 4 — an approximation that assumes the frame never shrinks).
	slotsPerTag := func(n int) float64 {
		r, _ := newRig(t, int64(400+n), n)
		const rounds = 5
		for i := 0; i < rounds; i++ {
			r.RunRound(RoundOpts{Antenna: 1}, nil)
		}
		return float64(r.Stats().Slots) / float64(rounds*n)
	}
	for _, n := range []int{10, 40} {
		s := slotsPerTag(n)
		lo, hi := math.E*0.8, math.E*math.Log(float64(n))*1.2
		if s < lo || s > hi {
			t.Fatalf("slots/tag at n=%d = %.2f, want within [%.2f, %.2f]", n, s, lo, hi)
		}
	}
}

func TestIRRCollapsesWithPopulation(t *testing.T) {
	// The §2.3 finding: IRR(40)/IRR(1) drops by a large factor. Measure
	// actual rounds.
	irr := func(n int) float64 {
		r, _ := newRig(t, int64(100+n), n)
		var total time.Duration
		const rounds = 10
		for i := 0; i < rounds; i++ {
			_, d := roundReads(r, RoundOpts{Antenna: 1})
			total += d
		}
		return float64(rounds) * float64(time.Second) / float64(total)
	}
	irr1, irr40 := irr(1), irr(40)
	if irr1 < 30 || irr1 > 70 {
		t.Fatalf("IRR(1) = %.1f Hz, want tens of Hz", irr1)
	}
	drop := 1 - irr40/irr1
	if drop < 0.5 {
		t.Fatalf("IRR drop at n=40 = %.2f, want a large collapse (paper: 0.84)", drop)
	}
}

func TestMeasuredCostMatchesModelShape(t *testing.T) {
	// Fit τ₀, τ̄ from measured round durations via the paper's least
	// squares and verify the fit explains the data (Fig. 2 methodology).
	var basis, ones, y []float64
	for _, n := range []int{1, 2, 4, 8, 12, 16, 24, 32, 40} {
		r, _ := newRig(t, int64(200+n), n)
		var total time.Duration
		const rounds = 5
		for i := 0; i < rounds; i++ {
			_, d := roundReads(r, RoundOpts{Antenna: 1})
			total += d
		}
		mean := float64(total) / rounds / float64(time.Millisecond)
		ones = append(ones, 1)
		basis = append(basis, aloha.CostBasis(n))
		y = append(y, mean)
	}
	tau0, tauBar, err := stats.LeastSquares2(ones, basis, y)
	if err != nil {
		t.Fatal(err)
	}
	// τ₀ should recover the configured 19 ms within tolerance; τ̄ should be
	// in the fraction-of-a-millisecond regime like the paper's 0.18 ms.
	if tau0 < 10 || tau0 > 30 {
		t.Fatalf("fitted τ₀ = %.2f ms, want ≈19", tau0)
	}
	if tauBar < 0.05 || tauBar > 0.6 {
		t.Fatalf("fitted τ̄ = %.3f ms, want ≈0.1–0.5", tauBar)
	}
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = tau0 + tauBar*basis[i]
	}
	if rmse := stats.RMSE(pred, y); rmse > 8 {
		t.Fatalf("model RMSE = %.2f ms — model does not track measurements", rmse)
	}
}

func TestFilterRestrictsRound(t *testing.T) {
	r, codes := newRig(t, 6, 20)
	target := codes[7]
	mask := gen2.SelectCmd{
		MemBank: epc.BankEPC,
		Pointer: epc.EPCWordOffset,
		Mask:    target,
	}
	reads, d := roundReads(r, RoundOpts{Antenna: 1, Filters: []gen2.SelectCmd{mask}})
	if len(reads) != 1 || reads[0].EPC != target {
		t.Fatalf("filtered round read %v, want only %s", reads, target)
	}
	// Selective round over 1 tag must be far cheaper than reading all 20.
	rAll, _ := newRig(t, 7, 20)
	_, dAll := roundReads(rAll, RoundOpts{Antenna: 1})
	if d >= dAll {
		t.Fatalf("selective round (%v) should undercut read-all (%v)", d, dAll)
	}
}

func TestFilterPrefixCoversSubset(t *testing.T) {
	// Build tags with controlled prefixes: 8 share a 4-bit prefix 0x3,
	// 12 start 0xE.
	rng := rand.New(rand.NewSource(8))
	p := rf.DefaultParams()
	scn := scene.New(rf.NewChannel(p, rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	var want int
	for i := 0; i < 20; i++ {
		b := make([]byte, 12)
		rng.Read(b)
		if i < 8 {
			b[0] = 0x30 | b[0]&0x0F
			want++
		} else {
			b[0] = 0xE0 | b[0]&0x0F
		}
		scn.AddTag(epc.New(b), scene.Stationary{P: rf.Pt(0.5+float64(i)*0.1, 1, 0)})
	}
	r := New(DefaultConfig(), scn)
	mask, _ := epc.NewBits([]byte{0x30}, 4)
	filter := gen2.SelectCmd{MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset, Mask: mask}
	reads, _ := roundReads(r, RoundOpts{Antenna: 1, Filters: []gen2.SelectCmd{filter}})
	if len(reads) != want {
		t.Fatalf("prefix round read %d tags, want %d", len(reads), want)
	}
	for _, rd := range reads {
		if rd.EPC.Bytes()[0]>>4 != 0x3 {
			t.Fatalf("non-matching tag %s read", rd.EPC)
		}
	}
}

// TestFilterActionsUniteOrIntersect: the filters' actions decide the
// round's population. Two Selects that each assert SL on their matches
// read every energised tag either mask covers; a second Select that
// deasserts its non-matches reads only the tags both cover. A tag out of
// range matches both masks and is never read.
func TestFilterActionsUniteOrIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	// The first EPC byte is 0x35, 0x3A, 0xE5 or 0xEA, six tags each.
	var codes []epc.EPC
	for i := 0; i < 24; i++ {
		b := make([]byte, 12)
		rng.Read(b)
		b[0] = []byte{0x35, 0x3A, 0xE5, 0xEA}[i%4]
		codes = append(codes, epc.New(b))
		scn.AddTag(codes[i], scene.Stationary{P: rf.Pt(0.5+float64(i%8)*0.2, 0.5+float64(i/8)*0.2, 0)})
	}
	scn.AddTag(epc.MustParse("350000000000000000000001"), scene.Stationary{P: rf.Pt(500, 0, 0)})
	hi, _ := epc.NewBits([]byte{0x30}, 4)
	lo, _ := epc.NewBits([]byte{0x50}, 4)
	a := gen2.SelectCmd{Action: gen2.ActionAssertNothing, MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset, Mask: hi}
	b := gen2.SelectCmd{Action: gen2.ActionAssertNothing, MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset + 4, Mask: lo}
	bDeassert := b
	bDeassert.Action = gen2.ActionNothingDeassert

	for _, tc := range []struct {
		name    string
		filters []gen2.SelectCmd
		want    func(first byte) bool
	}{
		{"union", []gen2.SelectCmd{a, b}, func(f byte) bool { return f>>4 == 0x3 || f&0xF == 0x5 }},
		{"intersection", []gen2.SelectCmd{a, bDeassert}, func(f byte) bool { return f == 0x35 }},
	} {
		r := New(DefaultConfig(), scn)
		reads, _ := roundReads(r, RoundOpts{Antenna: 1, Filters: tc.filters})
		got := map[epc.EPC]int{}
		for _, rd := range reads {
			got[rd.EPC]++
		}
		want := 0
		for _, c := range codes {
			if !tc.want(c.Bytes()[0]) {
				if got[c] != 0 {
					t.Fatalf("%s: read %s, which it does not cover", tc.name, c)
				}
				continue
			}
			want++
			if got[c] != 1 {
				t.Fatalf("%s: read %s %d times, want once", tc.name, c, got[c])
			}
		}
		if len(reads) != want {
			t.Fatalf("%s: %d reads, want the %d covered tags in range", tc.name, len(reads), want)
		}
	}
}

// TestReadsHandedOverAtSingulation: emit runs while the round is still
// going, with the reader clock standing at the read's time.
func TestReadsHandedOverAtSingulation(t *testing.T) {
	r, _ := newRig(t, 17, 20)
	var times []time.Duration
	r.RunRound(RoundOpts{Antenna: 1}, func(tr TagRead) {
		if r.Now() != tr.Time {
			t.Fatalf("read at %v handed over at %v", tr.Time, r.Now())
		}
		times = append(times, tr.Time)
	})
	if len(times) != 20 {
		t.Fatalf("%d reads, want 20", len(times))
	}
	if last := times[len(times)-1]; last >= r.Now() {
		t.Fatalf("last read at %v, round ended at %v: the round's empty tail comes after it", last, r.Now())
	}
}

func TestBudgetAbortsRound(t *testing.T) {
	r, _ := newRig(t, 9, 40)
	budget := r.Config().StartupCost + 2*time.Millisecond
	reads, d := roundReads(r, RoundOpts{Antenna: 1, Budget: budget})
	if len(reads) >= 40 {
		t.Fatal("budgeted round should not complete the population")
	}
	// Allow one slot of overshoot.
	if d > budget+2*time.Millisecond {
		t.Fatalf("round overshot budget: %v > %v", d, budget)
	}
}

func TestOutOfRangeTagsInvisible(t *testing.T) {
	r, _ := newRig(t, 10, 5)
	// A tag 500 m away is below sensitivity.
	farCode := epc.MustParse("deadbeefdeadbeefdeadbeef")
	r.Scene().AddTag(farCode, scene.Stationary{P: rf.Pt(500, 0, 0)})
	reads, _ := roundReads(r, RoundOpts{Antenna: 1})
	for _, rd := range reads {
		if rd.EPC == farCode {
			t.Fatal("out-of-range tag was read")
		}
	}
	if len(reads) != 5 {
		t.Fatalf("reads = %d, want 5", len(reads))
	}
}

func TestUnknownAntenna(t *testing.T) {
	r, _ := newRig(t, 11, 3)
	reads, d := roundReads(r, RoundOpts{Antenna: 99})
	if len(reads) != 0 {
		t.Fatal("unknown antenna must read nothing")
	}
	if d < r.Config().StartupCost {
		t.Fatal("the round still pays τ₀")
	}
}

func TestStatsAccumulate(t *testing.T) {
	r, _ := newRig(t, 12, 10)
	r.RunRound(RoundOpts{Antenna: 1}, nil)
	s := r.Stats()
	if s.Rounds != 1 || s.Reads != 10 || s.Singles != 10 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Slots < s.Empties+s.Collisions+s.Singles {
		t.Fatalf("slot accounting inconsistent: %+v", s)
	}
	if s.Empties == 0 {
		t.Fatal("a DFSA round over 10 tags must see empty slots")
	}
}

func TestFrequencyHopping(t *testing.T) {
	r, _ := newRig(t, 13, 2)
	seen := map[int]bool{}
	for i := 0; i < 40; i++ {
		reads, _ := roundReads(r, RoundOpts{Antenna: 1})
		for _, rd := range reads {
			seen[rd.Channel] = true
		}
		r.Advance(500 * time.Millisecond)
	}
	if len(seen) < 4 {
		t.Fatalf("hopping visited only %d channels over 40 rounds", len(seen))
	}
	// Hop disabled pins channel 0.
	cfg := DefaultConfig()
	cfg.HopEvery = 0
	r2 := New(cfg, r.Scene())
	reads, _ := roundReads(r2, RoundOpts{Antenna: 1})
	for _, rd := range reads {
		if rd.Channel != 0 {
			t.Fatalf("hop-disabled read on channel %d", rd.Channel)
		}
	}
}

func TestInventoryAllMultiAntenna(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := rf.DefaultParams()
	scn := scene.New(rf.NewChannel(p, rng), rng)
	// Two antennas 60 m apart, each with its own tag cluster: the paper's
	// "each antenna covers 40 tags" layout, scaled down.
	scn.AddAntenna(rf.Pt(0, 0, 2))
	scn.AddAntenna(rf.Pt(60, 0, 2))
	codes, _ := epc.RandomPopulation(rng, 10, 96)
	for i, c := range codes {
		base := rf.Pt(0.5, 0.5, 0)
		if i >= 5 {
			base = rf.Pt(60.5, 0.5, 0)
		}
		scn.AddTag(c, scene.Stationary{P: base.Add(rf.Pt(float64(i%5)*0.3, 0, 0))})
	}
	r := New(DefaultConfig(), scn)
	reads := r.InventoryAll()
	byAnt := map[int]int{}
	for _, rd := range reads {
		byAnt[rd.Antenna]++
	}
	if byAnt[1] != 5 || byAnt[2] != 5 {
		t.Fatalf("per-antenna reads = %v, want 5 each", byAnt)
	}
}

func TestAdvanceAndString(t *testing.T) {
	r, _ := newRig(t, 15, 1)
	r.Advance(time.Second)
	if r.Now() != time.Second {
		t.Fatal("Advance must move the clock")
	}
	r.Advance(-time.Second)
	if r.Now() != time.Second {
		t.Fatal("negative Advance must be ignored")
	}
	if r.String() == "" {
		t.Fatal("String must render")
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	r := New(Config{}, scn) // zero config
	if r.Config().Strategy == nil || r.Config().MaxSlotsPerRound <= 0 || r.Config().Timing.TariUS == 0 {
		t.Fatalf("zero config must be defaulted: %+v", r.Config())
	}
	if got := r.Config().MaxSelectFilters; got != 1 {
		t.Fatalf("a zero filter limit must mean 1, got %d", got)
	}
	if got := DefaultConfig().MaxSelectFilters; got != 2 {
		t.Fatalf("the default filter limit is %d, want the Speedway's 2", got)
	}
}

func TestOracleStrategyFasterThanFixedQ(t *testing.T) {
	run := func(strategy aloha.Strategy, seed int64) time.Duration {
		rng := rand.New(rand.NewSource(seed))
		scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
		scn.AddAntenna(rf.Pt(0, 0, 2))
		codes, _ := epc.RandomPopulation(rng, 30, 96)
		for i, c := range codes {
			scn.AddTag(c, scene.Stationary{P: rf.Pt(0.5+float64(i%6)*0.3, 0.5+float64(i/6)*0.3, 0)})
		}
		cfg := DefaultConfig()
		cfg.Strategy = strategy
		r := New(cfg, scn)
		var total time.Duration
		for i := 0; i < 5; i++ {
			_, d := roundReads(r, RoundOpts{Antenna: 1})
			total += d
		}
		return total
	}
	oracle := run(&aloha.OracleDFSA{}, 42)
	bad := run(aloha.FixedQ{Q: 10}, 42) // frame 1024 for 30 tags: empty-heavy
	if oracle >= bad {
		t.Fatalf("oracle DFSA (%v) must beat a wildly oversized fixed frame (%v)", oracle, bad)
	}
}

func TestCaptureEffectResolvesNearFar(t *testing.T) {
	// One tag right under the antenna, one at the edge of range: with
	// capture enabled, collided slots resolve to the strong tag, so rounds
	// finish in fewer slots than without capture.
	build := func(margin float64) *Reader {
		rng := rand.New(rand.NewSource(77))
		scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
		scn.AddAntenna(rf.Pt(0, 0, 2))
		scn.AddTag(epc.MustParse("300000000000000000000001"), scene.Stationary{P: rf.Pt(0.3, 0, 1.8)}) // strong
		scn.AddTag(epc.MustParse("300000000000000000000002"), scene.Stationary{P: rf.Pt(9, 0, 0)})     // weak
		cfg := DefaultConfig()
		cfg.CaptureMarginDB = 6
		if margin == 0 {
			cfg.CaptureMarginDB = 0
		}
		return New(cfg, scn)
	}
	withCapture := build(6)
	var capSlots int
	for i := 0; i < 20; i++ {
		reads, _ := roundReads(withCapture, RoundOpts{Antenna: 1})
		if len(reads) != 2 {
			t.Fatalf("capture round read %d tags; both must still be inventoried", len(reads))
		}
	}
	capSlots = withCapture.Stats().Slots

	without := build(0)
	for i := 0; i < 20; i++ {
		reads, _ := roundReads(without, RoundOpts{Antenna: 1})
		if len(reads) != 2 {
			t.Fatalf("plain round read %d tags", len(reads))
		}
	}
	plainSlots := without.Stats().Slots
	if capSlots >= plainSlots {
		t.Fatalf("capture (%d slots) must beat destructive collisions (%d)", capSlots, plainSlots)
	}
	// The link-budget gap really is ≥ 6 dB in this geometry.
	if withCapture.Stats().Collisions >= without.Stats().Collisions {
		t.Fatalf("capture must convert collisions: %d vs %d",
			withCapture.Stats().Collisions, without.Stats().Collisions)
	}
}

// openingQ records the Q each round opens at.
type openingQ struct {
	aloha.OracleDFSA
	opened []uint8
}

func (s *openingQ) BeginRound(estimate int) uint8 {
	q := s.OracleDFSA.BeginRound(estimate)
	s.opened = append(s.opened, q)
	return q
}

// TestStrategySizesForTheQueryContenders: the strategy's estimate is the
// number of tags that will join the opening Query, not every energised
// tag, so an oracle opens a round that selects 2 of 400 at Q = 1.
func TestStrategySizesForTheQueryContenders(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	codes, err := epc.RandomPopulation(rng, 400, 96)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range codes {
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.4+float64(i%20)*0.25, 0.4+float64(i/20)*0.25, 0)})
	}
	strategy := &openingQ{}
	cfg := DefaultConfig()
	cfg.Strategy = strategy
	r := New(cfg, scn)
	var filters []gen2.SelectCmd
	for _, c := range codes[:2] {
		filters = append(filters, gen2.SelectCmd{Action: gen2.ActionAssertNothing, MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset, Mask: c})
	}
	if reads, _ := roundReads(r, RoundOpts{Antenna: 1, Filters: filters}); len(reads) != 2 {
		t.Fatalf("the selective round read %d tags, want 2", len(reads))
	}
	if reads, _ := roundReads(r, RoundOpts{Antenna: 1}); len(reads) != 400 {
		t.Fatalf("read-all read %d tags, want 400", len(reads))
	}
	if want := []uint8{1, 9}; len(strategy.opened) != 2 || strategy.opened[0] != want[0] || strategy.opened[1] != want[1] {
		t.Fatalf("rounds opened at Q = %v, want %v (2 and 400 contenders)", strategy.opened, want)
	}
}
