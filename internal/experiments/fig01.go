package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/gen2"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
	"tagwatch/internal/stats"
	"tagwatch/internal/tracking"
)

// Fig01Case is one tracking configuration.
type Fig01Case struct {
	Name         string
	Stationary   int
	RateAdaptive bool
	MeanErrorCM  float64
	MoverIRRHz   float64
	Estimates    int
}

// Fig01Result is the application study: trajectory-recovery accuracy for a
// tagged toy train with different numbers of stationary companion tags,
// with and without rate-adaptive reading.
type Fig01Result struct {
	Cases []Fig01Case
}

// fig01Antennas returns the nominal (±5 m, ±5 m) rig with the small
// placement asymmetries of any real deployment. Perfect square symmetry
// makes opposite antennas' phase gradients exactly anti-parallel, so the
// differential hologram's λ/2 alias lattice fits the data exactly; a few
// decimetres of asymmetry — unavoidable in practice — break the lattice.
func fig01Antennas() []scene.Antenna {
	return []scene.Antenna{
		{ID: 1, Pos: rf.Pt(5.0, 4.3, 0)},
		{ID: 2, Pos: rf.Pt(-4.5, 5.2, 0)},
		{ID: 3, Pos: rf.Pt(-5.3, -4.1, 0)},
		{ID: 4, Pos: rf.Pt(4.2, -5.4, 0)},
	}
}

// fig01Scene builds the four-antenna tracking rig with the train and k
// stationary companions beside the track.
func fig01Scene(seed int64, k int) (*scene.Scene, epc.EPC, scene.Trajectory) {
	rng := rand.New(rand.NewSource(seed))
	p := rf.DefaultParams()
	scn := scene.New(rf.NewChannel(p, rng), rng)
	for _, pos := range fig01Antennas() {
		scn.AddAntenna(pos.Pos)
	}
	mobile := epc.MustParse("30f4ab12cd0045e100000101")
	track := scene.Circle{Center: rf.Pt(0, 0, 0), Radius: 0.2, Speed: 0.7}
	scn.AddTag(mobile, track)
	companions, err := epc.SequentialPopulation([]byte{0x30, 0xAA}, 1, k, 96)
	if err != nil {
		panic(err)
	}
	for i, c := range companions {
		ang := float64(i) * 1.3
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.45*math.Cos(ang), 0.45*math.Sin(ang), 0)})
	}
	return scn, mobile, track
}

// trackFromReadings runs the DAH tracker over the mover's readings.
func trackFromReadings(readings []core.Reading, mobile epc.EPC, track scene.Trajectory, span time.Duration) (float64, float64, int) {
	plan := rf.DefaultFrequencyPlan()
	tcfg := tracking.DefaultConfig()
	tcfg.MaxSpeed = 1.5 // m/s: generous bound for a toy train at 0.7 m/s
	tr := tracking.New(tcfg, plan, fig01Antennas())
	var obs []tracking.Observation
	for _, r := range readings {
		if r.EPC != mobile {
			continue
		}
		obs = append(obs, tracking.Observation{
			Time: r.Time, Antenna: r.Antenna, Channel: r.Channel, Phase: r.PhaseRad,
		})
	}
	if len(obs) == 0 {
		return 0, 0, 0
	}
	// "We fix the initial position at a known point": the ground truth at
	// the time of the first observation.
	tr.SetInitial(track.Pos(obs[0].Time))
	ests := tr.Track(obs)
	err := tracking.MeanError(ests, track)
	irr := hz(len(obs), span)
	return err * 100, irr, len(ests)
}

// Fig01 reproduces the tracking study: traditional reading with 0/2/4
// stationary companions, then rate-adaptive reading with 4. Each arm is
// averaged over several seeds: at contended reading rates the differential
// tracker operates at the phase-aliasing edge, so individual runs vary.
func Fig01(opt Options) (Fig01Result, error) {
	dur := time.Duration(opt.pick(20, 45)) * time.Second
	seeds := opt.pick(5, 9)
	var res Fig01Result

	// The tracking gate runs a dense-interrogator link profile with small
	// per-round overhead, calibrated so the single-tag rate lands at the
	// paper's ≈68 Hz and four companions cut it to the paper's ≈21 Hz
	// (Fig. 1's own numbers imply this operating point: slow slots, small
	// τ₀ — with the default 19 ms start-up cost four companion tags would
	// change the cycle time by only ~15%).
	rcfg := reader.DefaultConfig()
	rcfg.Timing = gen2.ImpinjDenseProfile()
	rcfg.StartupCost = 9 * time.Millisecond

	// Traditional reading-all arms. Per-seed errors are aggregated by
	// median: at contended rates the tracker sits at the λ/4 aliasing
	// edge and individual runs are bimodal (locked vs diverged).
	for _, k := range []int{0, 2, 4} {
		var errs []float64
		var irrSum float64
		var nSum int
		for s := 0; s < seeds; s++ {
			scn, mobile, track := fig01Scene(opt.Seed+int64(100*s), k)
			r := reader.New(rcfg, scn)
			dev := core.NewSimDevice(r)
			start := dev.Now()
			reads := dev.ReadAllFor(dur)
			span := dev.Now() - start
			errCM, irr, n := trackFromReadings(reads, mobile, track, span)
			errs = append(errs, errCM)
			irrSum += irr
			nSum += n
		}
		res.Cases = append(res.Cases, Fig01Case{
			Name:        fmt.Sprintf("read-all (1+%d)", k),
			Stationary:  k,
			MeanErrorCM: stats.Median(errs),
			MoverIRRHz:  irrSum / float64(seeds),
			Estimates:   nSum / seeds,
		})
	}

	// Rate-adaptive arm with 4 companions: the full two-phase middleware.
	var errs []float64
	var irrSum float64
	var nSum int
	for s := 0; s < seeds; s++ {
		scn, mobile, track := fig01Scene(opt.Seed+int64(100*s), 4)
		dev := core.NewSimDevice(reader.New(rcfg, scn))
		cfg := core.DefaultConfig()
		cfg.PhaseIIDwell = 5 * time.Second
		cfg.StickyFor = 12 * time.Second
		// One mover among five tags is exactly the default 20% fallback
		// cutoff; the paper's application study schedules at this ratio,
		// so the tracking deployment raises the cutoff.
		cfg.MobileCutoff = 0.6
		tw := core.New(cfg, dev)
		// A few flood cycles vouch the parked companions; fresh hop
		// channels then bootstrap silently.
		for i := 0; i < 6; i++ {
			tw.RunCycle()
		}
		var reads []core.Reading
		start := dev.Now()
		for dev.Now()-start < dur {
			rep := tw.RunCycle()
			reads = append(reads, rep.PhaseIReads...)
			reads = append(reads, rep.PhaseIIReads...)
		}
		span := dev.Now() - start
		errCM, irr, n := trackFromReadings(reads, mobile, track, span)
		errs = append(errs, errCM)
		irrSum += irr
		nSum += n
	}
	res.Cases = append(res.Cases, Fig01Case{
		Name:         "tagwatch (1+4)",
		Stationary:   4,
		RateAdaptive: true,
		MeanErrorCM:  stats.Median(errs),
		MoverIRRHz:   irrSum / float64(seeds),
		Estimates:    nSum / seeds,
	})
	return res, nil
}

// String renders the tracking comparison.
func (r Fig01Result) String() string {
	t := &table{header: []string{"case", "mover IRR (Hz)", "mean error (cm)", "estimates"}}
	for _, c := range r.Cases {
		t.add(c.Name, fmt.Sprintf("%.1f", c.MoverIRRHz), fmt.Sprintf("%.1f", c.MeanErrorCM),
			fmt.Sprintf("%d", c.Estimates))
	}
	return fmt.Sprintf(`Fig 1 — toy-train trajectory recovery (circular track, r=20 cm, v=0.7 m/s)
(paper: 1.8 cm with no companions → 6 cm with 2 → 10.6 cm with 4;
 rate-adaptive restores 3.34 cm with 4 companions)
%s`, t)
}

// Fig01SceneDebug exposes the tracking rig for diagnostics.
func Fig01SceneDebug(seed int64, k int) (*scene.Scene, epc.EPC, scene.Trajectory) {
	return fig01Scene(seed, k)
}
