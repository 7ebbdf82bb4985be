package tagwatch_test

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// cost-aware greedy vs a pure-coverage greedy, the GMM stack depth, the
// start-up cost τ₀, and the Phase II dwell. Run with:
//
//	go test -bench=Ablation -benchtime=1x

import (
	"math/rand"
	"testing"
	"time"

	"tagwatch/internal/aloha"
	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/motion"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
	"tagwatch/internal/schedule"
)

// BenchmarkAblationCostAwareGreedy compares the paper's cost-aware greedy
// against a pure-coverage greedy (τ₀ = 0 prices each covered tag equally,
// so the search minimises collateral instead of rounds). The metric is the
// true execution cost of each plan under the measured model: ignoring τ₀
// fragments the schedule into many rounds and pays the start-up cost
// repeatedly.
func BenchmarkAblationCostAwareGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pop, err := epc.RandomPopulation(rng, 200, 96)
	if err != nil {
		b.Fatal(err)
	}
	targets := pop[:10]
	paperCost := aloha.PaperCostModel()

	aware, err := schedule.NewIndexTable(schedule.DefaultConfig(), pop)
	if err != nil {
		b.Fatal(err)
	}
	pureCfg := schedule.DefaultConfig()
	pureCfg.Cost = aloha.CostModel{Tau0: 0, TauBar: paperCost.TauBar}
	pure, err := schedule.NewIndexTable(pureCfg, pop)
	if err != nil {
		b.Fatal(err)
	}
	trueCost := func(p schedule.Plan) time.Duration {
		var total time.Duration
		for _, m := range p.Masks {
			total += paperCost.Cost(m.Covered)
		}
		return total
	}
	for i := 0; i < b.N; i++ {
		pa, err := aware.Select(targets)
		if err != nil {
			b.Fatal(err)
		}
		pp, err := pure.Select(targets)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(trueCost(pa).Milliseconds()), "cost-aware-ms")
		b.ReportMetric(float64(trueCost(pp).Milliseconds()), "pure-coverage-ms")
		b.ReportMetric(float64(len(pa.Masks)), "aware-masks")
		b.ReportMetric(float64(len(pp.Masks)), "pure-masks")
	}
}

// BenchmarkAblationGMMStackDepth compares K=1 (a single Gaussian, the §4.1
// strawman) with the paper's K=8 in a two-mode multipath environment. A
// single capped Gaussian is forced to stretch over both multipath modes,
// so it stops flagging them (low FPR) but also stops noticing genuine
// centimetre displacements — the mixture keeps each mode tight and stays
// sensitive.
func BenchmarkAblationGMMStackDepth(b *testing.B) {
	tag := epc.MustParse("30f4ab12cd0045e100000001")
	run := func(k int, seed int64) (sensitivity float64) {
		rng := rand.New(rand.NewSource(seed))
		det := motion.NewPhaseMoG(motion.Config{K: k})
		modes := []float64{1.0, 2.4}
		for i := 0; i < 1500; i++ {
			x := rf.WrapPhase(modes[rng.Intn(2)] + rng.NormFloat64()*0.08)
			det.Observe(tag, 0, 0, x, time.Duration(i)*time.Millisecond)
		}
		// Probe 1 cm displacements (≈0.39 rad) off each mode.
		var hits, probes int
		for i := 0; i < 200; i++ {
			base := modes[rng.Intn(2)]
			x := rf.WrapPhase(base + 0.39 + rng.NormFloat64()*0.08)
			probes++
			if det.Peek(tag, 0, 0, x) > 3 {
				hits++
			}
		}
		return float64(hits) / float64(probes)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(1, int64(i)+1), "sens-1cm-K1")
		b.ReportMetric(run(8, int64(i)+1), "sens-1cm-K8")
	}
}

// ablationRig builds a 40-tag/2-mover rig with the given reader start-up
// cost and measures the movers' Phase II IRR gain over reading-all.
func ablationGain(b *testing.B, tau0 time.Duration, dwell time.Duration, seed int64) float64 {
	b.Helper()
	build := func() (*core.SimDevice, []epc.EPC, []epc.EPC) {
		rng := rand.New(rand.NewSource(seed))
		scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
		scn.AddAntenna(rf.Pt(0, 0, 2))
		codes, err := epc.RandomPopulation(rng, 40, 96)
		if err != nil {
			b.Fatal(err)
		}
		for i, c := range codes[:2] {
			scn.AddTag(c, scene.Circle{Center: rf.Pt(1.5, 1.5, 0), Radius: 0.2, Speed: 0.7, StartAngle: float64(i)})
		}
		for i, c := range codes[2:] {
			scn.AddTag(c, scene.Stationary{P: rf.Pt(0.4+float64(i%8)*0.3, 0.4+float64(i/8)*0.3, 0)})
		}
		rcfg := reader.DefaultConfig()
		rcfg.StartupCost = tau0
		return core.NewSimDevice(reader.New(rcfg, scn)), codes[:2], codes
	}
	// Baseline.
	devB, moversB, _ := build()
	span := 6 * dwell
	start := devB.Now()
	var base int
	for _, r := range devB.ReadAllFor(span) {
		if r.EPC == moversB[0] || r.EPC == moversB[1] {
			base++
		}
	}
	baseIRR := float64(base) / (devB.Now() - start).Seconds()

	// Tagwatch.
	dev, movers, _ := build()
	cfg := core.DefaultConfig()
	cfg.PhaseIIDwell = dwell
	cfg.StickyFor = 5 * dwell / 2
	tw := core.New(cfg, dev)
	for i := 0; i < 8; i++ {
		tw.RunCycle()
	}
	start = dev.Now()
	var got int
	for dev.Now()-start < span {
		rep := tw.RunCycle()
		for _, r := range append(rep.PhaseIReads, rep.PhaseIIReads...) {
			if r.EPC == movers[0] || r.EPC == movers[1] {
				got++
			}
		}
	}
	irr := float64(got) / (dev.Now() - start).Seconds()
	if baseIRR == 0 {
		return 0
	}
	return irr / baseIRR
}

// BenchmarkAblationStartupCost sweeps τ₀: every selective round pays the
// start-up cost for a handful of target tags, so a heavier τ₀ erodes the
// rate-adaptive gain — the effect behind the paper's warning that
// scheduling cost can counteract its benefit.
func BenchmarkAblationStartupCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationGain(b, 5*time.Millisecond, 2*time.Second, int64(i)+1), "gain-tau0-5ms")
		b.ReportMetric(ablationGain(b, 19*time.Millisecond, 2*time.Second, int64(i)+1), "gain-tau0-19ms")
		b.ReportMetric(ablationGain(b, 50*time.Millisecond, 2*time.Second, int64(i)+1), "gain-tau0-50ms")
	}
}

// BenchmarkAblationDwell sweeps the Phase II dwell: longer dwells amortise
// Phase I better (higher gain) at the price of slower reaction to state
// transitions.
func BenchmarkAblationDwell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationGain(b, 19*time.Millisecond, 1*time.Second, int64(i)+1), "gain-dwell-1s")
		b.ReportMetric(ablationGain(b, 19*time.Millisecond, 5*time.Second, int64(i)+1), "gain-dwell-5s")
		b.ReportMetric(ablationGain(b, 19*time.Millisecond, 10*time.Second, int64(i)+1), "gain-dwell-10s")
	}
}

// BenchmarkAblationPerLinkStacks compares per-(antenna,channel) immobility
// stacks against a single shared stack per tag. With frequency hopping,
// the shared stack mixes phases whose per-channel offsets differ, so a
// parked tag's readings land in ever-different modes and masquerade as
// motion — the false-positive rate explodes.
func BenchmarkAblationPerLinkStacks(b *testing.B) {
	run := func(ignoreChannel bool, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
		scn.AddAntenna(rf.Pt(0, 0, 2))
		codes, err := epc.RandomPopulation(rng, 20, 96)
		if err != nil {
			b.Fatal(err)
		}
		for i, c := range codes {
			scn.AddTag(c, scene.Stationary{P: rf.Pt(0.4+float64(i%5)*0.3, 0.4+float64(i/5)*0.3, 0)})
		}
		rcfg := reader.DefaultConfig() // hops every 2 s
		r := reader.New(rcfg, scn)
		det := motion.NewPhaseMoG(motion.Config{IgnoreChannel: ignoreChannel})
		var fp, n int
		var reads []reader.TagRead
		for r.Now() < 900*time.Second {
			reads = reads[:0]
			r.RunRound(reader.RoundOpts{Antenna: 1}, func(rd reader.TagRead) { reads = append(reads, rd) })
			r.Advance(time.Second)
			for _, rd := range reads {
				res := det.Observe(rd.EPC, rd.Antenna, rd.Channel, rd.PhaseRad, rd.Time)
				if rd.Time > 600*time.Second { // after warm-up
					n++
					if res.Restless() {
						fp++
					}
				}
			}
		}
		return float64(fp) / float64(n)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false, int64(i)+1), "fpr-per-link")
		b.ReportMetric(run(true, int64(i)+1), "fpr-shared")
	}
}
