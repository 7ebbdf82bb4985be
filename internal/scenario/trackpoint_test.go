package scenario

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"tagwatch/internal/aloha"
	"tagwatch/internal/stats"
)

// The trackpoint pack is the paper's §2.4 sorting facility (Figs. 3–4):
// these tests hold it to the trace statistics the paper reports.

func compileTrackpoint(t *testing.T, seed int64, rateAdaptive bool) *Compiled {
	t.Helper()
	spec, err := Lookup("trackpoint")
	if err != nil {
		t.Fatal(err)
	}
	spec.RateAdaptive = rateAdaptive
	c, err := Compile(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func readCounts(c *Compiled) []float64 {
	out := make([]float64, len(c.Tags))
	for i, tag := range c.Tags {
		out[i] = float64(tag.Reads)
	}
	return out
}

func medianCrossingReads(c *Compiled) float64 {
	xs := make([]float64, len(c.Tags))
	for i, tag := range c.Tags {
		xs[i] = float64(tag.CrossingReads)
	}
	return stats.Median(xs)
}

func TestTraceBasicShape(t *testing.T) {
	c := compileTrackpoint(t, 1, false)
	if len(c.Tags) != 527 {
		t.Fatalf("tags = %d, want 527", len(c.Tags))
	}
	// Total readings in the paper's order of magnitude (367,536 measured).
	if c.Stats.Readings < 100_000 || c.Stats.Readings > 900_000 {
		t.Fatalf("total readings = %d, want paper order (~367k)", c.Stats.Readings)
	}
	seen := map[string]bool{}
	for _, tag := range c.Tags {
		if seen[tag.EPC.String()] {
			t.Fatalf("duplicate EPC %s", tag.EPC)
		}
		seen[tag.EPC.String()] = true
	}
}

func TestHeroTagDominates(t *testing.T) {
	// The paper's tag #271: parked beside the gate, read ~90,000 times.
	c := compileTrackpoint(t, 2, false)
	hero := c.Tags[0]
	for _, tag := range c.Tags {
		if tag.Reads > hero.Reads {
			hero = tag
		}
	}
	if !hero.Parked {
		t.Fatalf("the hottest tag must be a parked one: %+v", hero)
	}
	// It utterly dominates the median.
	med := stats.Median(readCounts(c))
	if float64(hero.Reads) < 100*med {
		t.Fatalf("hero (%d) should dwarf the median (%.0f)", hero.Reads, med)
	}
}

func TestMoversReadLittle(t *testing.T) {
	// §2.4: "the real moving tags are typically read less than 5 times
	// when being moved across the gate" (expected ≈50 uncontended).
	med := medianCrossingReads(compileTrackpoint(t, 3, false))
	if med > 20 {
		t.Fatalf("median crossing reads = %.1f, want contention-starved (<20)", med)
	}
	if med < 1 {
		t.Fatalf("median crossing reads = %.1f — movers must still be read", med)
	}
}

func TestConcurrentMoversMinority(t *testing.T) {
	// Paper: at most ≈30 of 527 tags (≈5.7%) simultaneously conveyed.
	peak := 0
	for _, ev := range compileTrackpoint(t, 4, false).Events {
		peak = max(peak, len(ev.Mobile))
	}
	if peak > 30 {
		t.Fatalf("peak movers in one cycle = %d, want ≤30", peak)
	}
	if peak < 1 {
		t.Fatal("no movers at all")
	}
}

func TestReadCountDistributionHeavyTail(t *testing.T) {
	// Fig. 4: 20% of tags read >205 times, 10% >655. Assert the shape
	// with slack: the top decile is far hotter than the median, and the
	// paper's two quantile anchors hold within loose bands.
	counts := readCounts(compileTrackpoint(t, 5, false))
	over205 := 1 - stats.CDFAt(counts, 205)
	over655 := 1 - stats.CDFAt(counts, 655)
	if over205 < 0.08 || over205 > 0.45 {
		t.Fatalf("fraction read >205 = %.3f, want ≈0.20 band", over205)
	}
	if over655 < 0.04 || over655 > 0.30 {
		t.Fatalf("fraction read >655 = %.3f, want ≈0.10 band", over655)
	}
	if over655 >= over205 {
		t.Fatal("CDF must be monotone")
	}
	p90 := stats.Percentile(counts, 0.9)
	med := stats.Median(counts)
	if p90 < 5*med {
		t.Fatalf("p90 (%.0f) must dwarf the median (%.0f): heavy tail", p90, med)
	}
}

func TestTimelineCoversTrace(t *testing.T) {
	c := compileTrackpoint(t, 6, false)
	timeline := c.ReadingsPerMinute()
	var sum, active int
	for _, n := range timeline {
		sum += n
		if n > 0 {
			active++
		}
	}
	if sum != c.Stats.Readings {
		t.Fatalf("timeline sums to %d, total %d", sum, c.Stats.Readings)
	}
	// The gate is busy most of the time (parked tags are always read).
	if active < len(timeline)*3/4 {
		t.Fatalf("only %d of %d minutes active", active, len(timeline))
	}
}

func TestRateAdaptiveRestoresCrossingReads(t *testing.T) {
	// The paper's motivating claim, closed end-to-end: each parcel should
	// be read ≈50 times while crossing (≈1 s at the uncontended ~48 Hz);
	// under reading-all the parked population starves crossings to single
	// digits; under the rate-adaptive policy the expectation is restored.
	base := compileTrackpoint(t, 42, false)
	adaptive := compileTrackpoint(t, 42, true)
	mb, ma := medianCrossingReads(base), medianCrossingReads(adaptive)
	if ma < 3*mb {
		t.Fatalf("rate-adaptive median crossing reads %.0f must dwarf read-all %.0f", ma, mb)
	}
	if ma < 25 || ma > 90 {
		t.Fatalf("rate-adaptive crossing reads = %.0f, want ≈50 (the paper's expectation)", ma)
	}
	// And the parked flood is gone: total readings collapse.
	if adaptive.Stats.Readings > base.Stats.Readings/3 {
		t.Fatalf("adaptive total %d should be far below read-all %d", adaptive.Stats.Readings, base.Stats.Readings)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	// TestGoldenDeterminism pins every pack read-all; the rate-adaptive
	// replay is held to the same contract here.
	a := compileTrackpoint(t, 7, true)
	b := compileTrackpoint(t, 7, true)
	if a.Digest() != b.Digest() || a.Stats.Readings != b.Stats.Readings {
		t.Fatal("same seed must reproduce the timeline")
	}
	if c := compileTrackpoint(t, 8, true); c.Digest() == a.Digest() {
		t.Fatal("different seeds should differ (astronomically unlikely collision)")
	}
	if c := compileTrackpoint(t, 7, false); c.Digest() == a.Digest() {
		t.Fatal("rate-adaptive and read-all replays of one seed should differ")
	}
}

func TestShortCustomTrace(t *testing.T) {
	spec, err := Lookup("trackpoint")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = 10 * time.Minute
	spec.Population = 40
	spec.Categories[0].MeanDwell = 3 * time.Minute
	for _, rateAdaptive := range []bool{false, true} {
		spec.RateAdaptive = rateAdaptive
		c, err := Compile(spec, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Tags) == 0 || len(c.Tags) > 40 {
			t.Fatalf("rate-adaptive %v: tags = %d", rateAdaptive, len(c.Tags))
		}
		if c.Stats.Readings == 0 {
			t.Fatalf("rate-adaptive %v: no readings", rateAdaptive)
		}
		for _, tag := range c.Tags {
			if tag.Depart < tag.Arrive {
				t.Fatalf("tag departs before arriving: %+v", tag)
			}
			if tag.Depart > spec.Duration {
				t.Fatalf("tag departs after the trace ends: %+v", tag)
			}
			if tag.CrossingReads > tag.Reads {
				t.Fatalf("more crossing reads than reads: %+v", tag)
			}
		}
	}
}

func TestCompileRejectsDegenerateConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"zero duration", func(s *Spec) { s.Duration = 0 }, "non-positive duration"},
		{"negative duration", func(s *Spec) { s.Duration = -time.Hour }, "non-positive duration"},
		{"zero arrivals", func(s *Spec) { s.Population = 0 }, "empty population"},
		{"negative arrivals", func(s *Spec) { s.Population = -5 }, "negative population"},
		{"zero gamma", func(s *Spec) { s.Categories[0].GammaAlpha = 0 }, "non-positive gamma alpha"},
		{"negative gamma", func(s *Spec) { s.Categories[0].GammaAlpha = -2 }, "non-positive gamma alpha"},
		{"zero cross", func(s *Spec) { s.CrossTime = 0 }, "non-positive cross time"},
		{"bad park prob", func(s *Spec) { s.Categories[0].ParkProb = 1.5 }, "park probability"},
		{"park no dwell", func(s *Spec) { s.Categories[0].MeanDwell = 0 }, "non-positive dwell"},
		{"negative step", func(s *Spec) { s.Step = -time.Second }, "negative step"},
	}
	for _, tc := range cases {
		spec, err := Lookup("trackpoint")
		if err != nil {
			t.Fatal(err)
		}
		tc.mut(&spec)
		_, err = Compile(spec, 1)
		if err == nil {
			t.Errorf("%s: Compile accepted a degenerate spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestZeroStepAndCostDefault(t *testing.T) {
	spec := validSpec()
	spec.Step = 0
	spec.Cost = aloha.CostModel{}
	c, err := Compile(spec, 10)
	if err != nil {
		t.Fatalf("zero step/cost must default, not fail: %v", err)
	}
	if c.Spec.Step != time.Second || c.Spec.Cost != aloha.PaperCostModel() {
		t.Fatalf("defaults not filled in: step %v, cost %v", c.Spec.Step, c.Spec.Cost)
	}
	if c.Stats.Readings == 0 {
		t.Fatal("defaults must fill in and generate")
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mean := range []float64{0.3, 3, 80} {
		var sum, sq float64
		const n = 20000
		for i := 0; i < n; i++ {
			k := float64(poisson(rng, mean))
			sum += k
			sq += k * k
		}
		m := sum / n
		v := sq/n - m*m
		if m < mean*0.93 || m > mean*1.07 {
			t.Fatalf("poisson(%v) mean = %v", mean, m)
		}
		if v < mean*0.85 || v > mean*1.15 {
			t.Fatalf("poisson(%v) variance = %v", mean, v)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
}
