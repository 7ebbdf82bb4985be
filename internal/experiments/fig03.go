package experiments

import (
	"fmt"

	"tagwatch/internal/scenario"
	"tagwatch/internal/stats"
)

// Fig03Result is the TrackPoint case study (Figs. 3 and 4): the 4-hour
// sorting-facility reading trace and its per-tag reading-count
// distribution.
type Fig03Result struct {
	// Trace is the read-all timeline of the trackpoint pack.
	Trace *scenario.Compiled
	// HeroReads is the hottest tag's reading count (the paper's "tag #271").
	HeroReads int
	// PeakMovers is the most tags read while crossing in one cycle.
	PeakMovers  int
	MedianCross float64
	Over205     float64 // fraction of tags read > 205 times (paper: 0.20)
	Over655     float64 // fraction of tags read > 655 times (paper: 0.10)
	// TimelineMean and TimelineMax summarise Fig. 3's readings per minute.
	TimelineMean float64
	TimelineMax  int
	// MedianCrossAdaptive replays the facility under the rate-adaptive
	// policy: the paper's "should be read about 50 times" expectation.
	MedianCrossAdaptive float64

	counts []float64 // per-tag reading counts, for the Fig. 4 CDF
}

// Fig03 compiles the trackpoint pack twice, read-all and rate-adaptive,
// and computes the paper's headline statistics for Figs. 3 and 4. The
// full pack compiles in well under a second, so Quick does not shrink it.
func Fig03(opt Options) (Fig03Result, error) {
	spec, err := scenario.Lookup("trackpoint")
	if err != nil {
		return Fig03Result{}, err
	}
	tr, err := scenario.Compile(spec, opt.Seed)
	if err != nil {
		return Fig03Result{}, err
	}
	spec.RateAdaptive = true
	adaptive, err := scenario.Compile(spec, opt.Seed)
	if err != nil {
		return Fig03Result{}, err
	}

	res := Fig03Result{Trace: tr, MedianCrossAdaptive: medianCrossing(adaptive)}
	for _, tag := range tr.Tags {
		res.counts = append(res.counts, float64(tag.Reads))
		res.HeroReads = max(res.HeroReads, tag.Reads)
	}
	for _, ev := range tr.Events {
		res.PeakMovers = max(res.PeakMovers, len(ev.Mobile))
	}
	timeline := tr.ReadingsPerMinute()
	for _, c := range timeline {
		res.TimelineMax = max(res.TimelineMax, c)
	}
	res.TimelineMean = float64(tr.Stats.Readings) / float64(len(timeline))
	res.MedianCross = medianCrossing(tr)
	res.Over205 = 1 - stats.CDFAt(res.counts, 205)
	res.Over655 = 1 - stats.CDFAt(res.counts, 655)
	return res, nil
}

// medianCrossing is the median number of reads a tag gets while crossing.
func medianCrossing(c *scenario.Compiled) float64 {
	xs := make([]float64, len(c.Tags))
	for i, tag := range c.Tags {
		xs[i] = float64(tag.CrossingReads)
	}
	return stats.Median(xs)
}

// String renders the Fig. 3/4 summary.
func (r Fig03Result) String() string {
	t := &table{header: []string{"reads ≤", "fraction of tags"}}
	for _, q := range []float64{5, 20, 50, 205, 655, 5000, 50000} {
		t.add(fmt.Sprintf("%.0f", q), fmt.Sprintf("%.3f", stats.CDFAt(r.counts, q)))
	}
	return fmt.Sprintf(`Fig 3 — sorting-facility trace (%s pack, %v, %d tags)
total readings: %d (paper: 367,536 over 4 h)
readings/minute: mean %.0f, max %d
hottest tag: %d reads (paper's parked tag #271: ≈90,000)
peak movers read in one cycle: %d (paper: ≈30, ≤5.7%%)
median crossing reads: %.1f (paper: <5, expected ≈50 uncontended)
…and with the rate-adaptive policy replayed on the same facility: %.1f

Fig 4 — reading-count CDF
%s
fraction read >205: %.3f (paper: 0.20)   >655: %.3f (paper: 0.10)
`, r.Trace.Spec.Name, r.Trace.Spec.Duration, len(r.Trace.Tags), r.Trace.Stats.Readings,
		r.TimelineMean, r.TimelineMax, r.HeroReads,
		r.PeakMovers, r.MedianCross, r.MedianCrossAdaptive, t, r.Over205, r.Over655)
}
