package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
)

// paperRig builds the paper's one-antenna testbed: nStat stationary tags on
// a grid, nMob tags on a spinning turntable, all in range.
func paperRig(t *testing.T, seed int64, nStat, nMob int, hop time.Duration) (*Tagwatch, *SimDevice, []epc.EPC, []epc.EPC) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := rf.DefaultParams()
	scn := scene.New(rf.NewChannel(p, rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	codes, err := epc.RandomPopulation(rng, nStat+nMob, 96)
	if err != nil {
		t.Fatal(err)
	}
	movers := codes[:nMob]
	static := codes[nMob:]
	for i, c := range movers {
		scn.AddTag(c, scene.Circle{
			Center:     rf.Pt(1.5, 1.5, 0),
			Radius:     0.2,
			Speed:      0.7,
			StartAngle: float64(i),
		})
	}
	for i, c := range static {
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.4+float64(i%8)*0.3, 0.4+float64(i/8)*0.3, 0)})
	}
	rcfg := reader.DefaultConfig()
	rcfg.HopEvery = hop
	eng := reader.New(rcfg, scn)
	dev := NewSimDevice(eng)
	cfg := DefaultConfig()
	cfg.PhaseIIDwell = 2 * time.Second
	cfg.StickyFor = 5 * time.Second // scale hysteresis with the short dwell
	tw := New(cfg, dev)
	return tw, dev, movers, static
}

func inSet(set []epc.EPC, code epc.EPC) bool {
	for _, c := range set {
		if c == code {
			return true
		}
	}
	return false
}

func TestFirstCycleColdStartFallsBack(t *testing.T) {
	tw, _, _, _ := paperRig(t, 1, 20, 1, 0)
	rep := tw.RunCycle()
	if !rep.FellBack {
		t.Fatal("cold start must fall back to read-all (everything looks mobile)")
	}
	if len(rep.PhaseIIReads) == 0 {
		t.Fatal("fallback must still read in Phase II")
	}
}

func TestCycleIdentifiesMovers(t *testing.T) {
	tw, _, movers, static := paperRig(t, 2, 30, 2, 0)
	var rep CycleReport
	for i := 0; i < 5; i++ { // cold-start sticky targets decay over ~4 cycles
		rep = tw.RunCycle()
	}
	for _, m := range movers {
		if !inSet(rep.Targets, m) {
			t.Fatalf("mover %s not targeted in warm cycle (targets %v)", m, rep.Targets)
		}
	}
	// False positives bounded: at most a handful of the 30 stationary tags.
	var fp int
	for _, s := range static {
		if inSet(rep.Targets, s) {
			fp++
		}
	}
	if fp > 4 {
		t.Fatalf("%d of %d stationary tags mis-targeted", fp, len(static))
	}
	if rep.FellBack {
		t.Fatal("warm cycle with 2/32 movers must schedule, not fall back")
	}
}

func TestPhaseIIReadsMostlyTargets(t *testing.T) {
	tw, _, movers, _ := paperRig(t, 3, 30, 2, 0)
	var rep CycleReport
	for i := 0; i < 5; i++ {
		rep = tw.RunCycle()
	}
	if rep.FellBack {
		t.Skip("unlucky seed fell back; covered elsewhere")
	}
	var target, other int
	for _, r := range rep.PhaseIIReads {
		if inSet(rep.Targets, r.EPC) {
			target++
		} else {
			other++
		}
	}
	if target == 0 {
		t.Fatal("no target reads in Phase II")
	}
	// Collateral reads are allowed (cost-optimal masks may drag some in)
	// but targets must dominate.
	if other > target {
		t.Fatalf("collateral reads (%d) dominate target reads (%d)", other, target)
	}
	// Movers specifically got read a lot: an IRR far above 1/cycle.
	for _, m := range movers {
		var n int
		for _, r := range rep.PhaseIIReads {
			if r.EPC == m {
				n++
			}
		}
		if n < 10 {
			t.Fatalf("mover %s read only %d times in a 2 s Phase II", m, n)
		}
	}
}

func TestIRRGainOverReadAll(t *testing.T) {
	// The headline result: with ~6% movers, Tagwatch multiplies mover IRR
	// versus reading all (paper: 3.2× median at 5%).
	tw, dev, movers, _ := paperRig(t, 4, 30, 2, 0)
	for i := 0; i < 2; i++ {
		tw.RunCycle() // warm up
	}
	start := dev.Now()
	moverReads := 0
	for i := 0; i < 3; i++ {
		rep := tw.RunCycle()
		for _, r := range append(rep.PhaseIReads, rep.PhaseIIReads...) {
			if inSet(movers, r.EPC) {
				moverReads++
			}
		}
	}
	twIRR := float64(moverReads) / (dev.Now() - start).Seconds() / float64(len(movers))

	// Baseline: identical rig, plain read-all for the same virtual span.
	_, devB, moversB, _ := paperRig(t, 4, 30, 2, 0)
	span := dev.Now() - start
	base := devB.ReadAllFor(span)
	baseReads := 0
	for _, r := range base {
		if inSet(moversB, r.EPC) {
			baseReads++
		}
	}
	baseIRR := float64(baseReads) / span.Seconds() / float64(len(moversB))

	if baseIRR <= 0 {
		t.Fatal("baseline read nothing")
	}
	gain := twIRR / baseIRR
	if gain < 1.5 {
		t.Fatalf("IRR gain = %.2f× (tagwatch %.1f Hz vs read-all %.1f Hz), want ≥ 1.5×", gain, twIRR, baseIRR)
	}
}

func TestIdenticalSeedsRepeatEveryCycle(t *testing.T) {
	// Two instances over identically seeded simulators must agree on every
	// cycle report, plans included: nothing may depend on map order.
	a, _, _, _ := paperRig(t, 9, 60, 4, 0)
	b, _, _, _ := paperRig(t, 9, 60, 4, 0)
	selective := 0
	for i := 0; i < 40; i++ {
		ra, rb := a.RunCycle(), b.RunCycle()
		ra.ScheduleCost, rb.ScheduleCost = 0, 0 // wall clock
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("cycle %d differs:\nPresent %v / %v\nTargets %v / %v\nPlan %v / %v",
				i, ra.Present, rb.Present, ra.Targets, rb.Targets, ra.Plan.Bitmasks(), rb.Plan.Bitmasks())
		}
		if !ra.FellBack {
			selective++
		}
	}
	if selective < 20 {
		t.Fatalf("only %d of 40 cycles were selective", selective)
	}
}

func TestFallbackWhenTooManyMovers(t *testing.T) {
	tw, _, _, _ := paperRig(t, 5, 10, 10, 0) // 50% movers
	var rep CycleReport
	for i := 0; i < 3; i++ {
		rep = tw.RunCycle()
	}
	if !rep.FellBack {
		t.Fatal("50% movers must trip the read-all fallback (§3 Scope)")
	}
}

func TestPinnedTagAlwaysScheduled(t *testing.T) {
	tw, _, _, static := paperRig(t, 6, 20, 1, 0)
	pinned := static[7]
	tw.Pin(pinned)
	var rep CycleReport
	for i := 0; i < 4; i++ {
		rep = tw.RunCycle()
	}
	if rep.FellBack {
		t.Skip("fallback cycle; pinning is moot")
	}
	if !inSet(rep.Targets, pinned) {
		t.Fatalf("pinned stationary tag missing from targets %v", rep.Targets)
	}
	var n int
	for _, r := range rep.PhaseIIReads {
		if r.EPC == pinned {
			n++
		}
	}
	if n == 0 {
		t.Fatal("pinned tag not read in Phase II")
	}
	tw.Unpin(pinned)
	rep = tw.RunCycle()
	if !rep.FellBack && inSet(rep.Targets, pinned) {
		t.Fatal("unpinned stationary tag must drop out of the targets")
	}
}

func TestSubscribeSeesEverything(t *testing.T) {
	tw, _, _, _ := paperRig(t, 7, 10, 1, 0)
	var n int
	tw.Subscribe(func(Reading) { n++ })
	rep := tw.RunCycle()
	want := len(rep.PhaseIReads) + len(rep.PhaseIIReads)
	if n != want {
		t.Fatalf("subscriber saw %d readings, want %d", n, want)
	}
	if tw.History().Total(rep.PhaseIReads[0].EPC) == 0 {
		t.Fatal("history must record readings")
	}
}

func TestScheduleCostBounded(t *testing.T) {
	// Fig. 17: the assessment+selection gap is milliseconds. Allow
	// generous slack for shared machines, but catch algorithmic
	// regressions (e.g. candidate explosion).
	tw, _, _, _ := paperRig(t, 8, 38, 2, 0)
	var rep CycleReport
	for i := 0; i < 4; i++ {
		rep = tw.RunCycle()
	}
	if rep.ScheduleCost > 100*time.Millisecond {
		t.Fatalf("schedule cost %v — candidate search blew up", rep.ScheduleCost)
	}
}

func TestDepartedTagForgotten(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	stay := epc.MustParse("30f4ab12cd0045e100000001")
	leave := epc.MustParse("30f4ab12cd0045e100000002")
	scn.AddTag(stay, scene.Stationary{P: rf.Pt(1, 1, 0)})
	// Departs out of range after 3 s.
	scn.AddTag(leave, scene.Line{
		Start:  rf.Pt(1.5, 1, 0),
		Dir:    rf.Pt(1, 0, 0),
		Speed:  100,
		Depart: 3 * time.Second,
		Arrive: 13 * time.Second,
	})
	eng := reader.New(reader.DefaultConfig(), scn)
	dev := NewSimDevice(eng)
	cfg := DefaultConfig()
	cfg.PhaseIIDwell = time.Second
	cfg.DepartAfter = 4 * time.Second
	tw := New(cfg, dev)
	for i := 0; i < 12; i++ {
		tw.RunCycle()
	}
	if _, ok := tw.History().LastSeen(leave); ok {
		t.Fatal("departed tag must be pruned from history")
	}
	if _, ok := tw.History().LastSeen(stay); !ok {
		t.Fatal("present tag must remain in history")
	}
	if tw.Detector().Stack(leave, 1, 0) != nil {
		t.Fatal("departed tag's immobility models must be freed")
	}
}

func TestHoppingWarmupConverges(t *testing.T) {
	// With frequency hopping the per-channel stacks start cold on every
	// new channel; the fallback floods them and the system converges to
	// selective reading within a bounded number of cycles. A reduced
	// 4-channel plan keeps the warm-up inside a test-sized budget (with
	// the full 16-channel plan, convergence takes proportionally longer —
	// every channel must be flooded at least once).
	rng := rand.New(rand.NewSource(10))
	p := rf.DefaultParams()
	p.Plan = rf.FrequencyPlan{BaseHz: 920.625e6, StepHz: 0.25e6, NumChan: 4}
	scn := scene.New(rf.NewChannel(p, rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	codes, err := epc.RandomPopulation(rng, 26, 96)
	if err != nil {
		t.Fatal(err)
	}
	mover := codes[0]
	scn.AddTag(mover, scene.Circle{Center: rf.Pt(1.5, 1.5, 0), Radius: 0.2, Speed: 0.7})
	for i, c := range codes[1:] {
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.4+float64(i%8)*0.3, 0.4+float64(i/8)*0.3, 0)})
	}
	rcfg := reader.DefaultConfig()
	rcfg.HopEvery = 2 * time.Second
	eng := reader.New(rcfg, scn)
	cfg := DefaultConfig()
	cfg.PhaseIIDwell = 2 * time.Second
	cfg.StickyFor = 5 * time.Second
	tw := New(cfg, NewSimDevice(eng))

	converged := false
	var rep CycleReport
	for i := 0; i < 30; i++ {
		rep = tw.RunCycle()
		if !rep.FellBack && inSet(rep.Targets, mover) && len(rep.Targets) <= 6 {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("never converged under hopping: last cycle fellback=%v targets=%d", rep.FellBack, len(rep.Targets))
	}
}

func TestCycleReportAccounting(t *testing.T) {
	tw, dev, _, _ := paperRig(t, 11, 15, 1, 0)
	before := dev.Now()
	rep := tw.RunCycle()
	if rep.PhaseIDuration <= 0 || rep.PhaseIIDuration <= 0 {
		t.Fatalf("durations: %v / %v", rep.PhaseIDuration, rep.PhaseIIDuration)
	}
	if dev.Now()-before < rep.PhaseIDuration+rep.PhaseIIDuration {
		t.Fatal("clock must advance by at least both phases")
	}
	if len(rep.Present) != 16 {
		t.Fatalf("present = %d, want 16", len(rep.Present))
	}
}

func TestNewDefaultsFilled(t *testing.T) {
	tw := New(Config{}, nil)
	if tw.cfg.PhaseIIDwell != 5*time.Second || tw.cfg.MobileCutoff != 0.2 || tw.cfg.HistoryDepth != 256 {
		t.Fatalf("defaults: %+v", tw.cfg)
	}
}

func TestSaveLoadStateAcrossRestart(t *testing.T) {
	// Warm a middleware instance, snapshot it, and resume in a fresh
	// instance over the same scene: the resumed instance must not fall
	// back (no cold start).
	tw, dev, movers, _ := paperRig(t, 50, 20, 1, 0)
	for i := 0; i < 5; i++ {
		tw.RunCycle()
	}
	img, err := tw.Image()
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.PhaseIIDwell = 2 * time.Second
	cfg.StickyFor = 5 * time.Second
	resumed := New(cfg, dev)
	if err := resumed.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	// No cold start: the very first resumed cycle must NOT flag the
	// stationary majority as mobile (a cold start flags everything).
	rep := resumed.RunCycle()
	if len(rep.Mobile) > 4 {
		t.Fatalf("resumed first cycle flagged %d tags mobile — cold start", len(rep.Mobile))
	}
	// And within two cycles the mover is targeted again.
	found := inSet(rep.Targets, movers[0])
	for i := 0; i < 2 && !found; i++ {
		rep = resumed.RunCycle()
		found = inSet(rep.Targets, movers[0])
	}
	if !found {
		t.Fatal("resumed middleware must still detect the mover")
	}
}

func TestMetricsAccumulate(t *testing.T) {
	tw, _, _, _ := paperRig(t, 60, 10, 1, 0)
	for i := 0; i < 3; i++ {
		tw.RunCycle()
	}
	m := tw.Metrics()
	if m.Cycles != 3 {
		t.Fatalf("cycles = %d", m.Cycles)
	}
	if m.Fallbacks == 0 {
		t.Fatal("cold-start cycles must count as fallbacks")
	}
	if m.PhaseIReadings == 0 || m.PhaseIIReadings == 0 {
		t.Fatalf("readings: %d/%d", m.PhaseIReadings, m.PhaseIIReadings)
	}
	if m.ScheduleCostTotal <= 0 {
		t.Fatal("schedule cost must accumulate")
	}
}

func TestPanickingListenerContained(t *testing.T) {
	tw, _, _, _ := paperRig(t, 7, 10, 1, 0)
	var survivor int
	tw.Subscribe(func(Reading) { panic("broken subscriber") })
	tw.Subscribe(func(Reading) { survivor++ })
	rep := tw.RunCycle()
	want := len(rep.PhaseIReads) + len(rep.PhaseIIReads)
	if survivor != want {
		t.Fatalf("healthy subscriber saw %d readings, want %d", survivor, want)
	}
	if got := tw.Metrics().ListenerPanics; got != uint64(want) {
		t.Fatalf("ListenerPanics = %d, want %d", got, want)
	}
}
