package tagwatch_test

// One benchmark per figure of the paper's evaluation (the paper has no
// numbered tables). Each benchmark regenerates the figure's data at quick
// scale and reports the headline quantity via b.ReportMetric, so a bench
// run doubles as a regression check on the reproduced shapes:
//
//	go test -bench=. -benchmem
//
// cmd/experiments prints the full rows/series for each figure.

import (
	"testing"

	"tagwatch/internal/experiments"
)

func benchOpts(i int) experiments.Options {
	return experiments.Options{Seed: int64(1 + i), Quick: true}
}

// BenchmarkFig01Tracking regenerates the tracking study: trajectory error
// with 0/2/4 stationary companions and with rate-adaptive reading.
func BenchmarkFig01Tracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig01(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		last := r.Cases[len(r.Cases)-1]
		b.ReportMetric(last.MeanErrorCM, "tagwatch-err-cm")
		b.ReportMetric(r.Cases[2].MeanErrorCM, "readall-1+4-err-cm")
	}
}

// BenchmarkFig02IRR regenerates the reading-rate study and cost-model fit.
func BenchmarkFig02IRR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig02(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.DropFrac, "irr-drop-pct")
		b.ReportMetric(float64(r.FitTau0.Microseconds())/1000, "tau0-ms")
	}
}

// BenchmarkFig03Trace regenerates the sorting-facility trace (Fig 3).
func BenchmarkFig03Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig03(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Trace.Stats.Readings), "readings")
		b.ReportMetric(float64(r.HeroReads), "hero-reads")
	}
}

// BenchmarkFig04TraceCDF regenerates the reading-count distribution
// quantiles (Fig 4; same workload as Fig 3).
func BenchmarkFig04TraceCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig03(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Over205, "frac-over-205")
		b.ReportMetric(r.Over655, "frac-over-655")
	}
}

// BenchmarkFig08GMM regenerates the multi-modal phase histogram and the
// learned immobility modes.
func BenchmarkFig08GMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig08(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.StrongModes), "strong-modes")
	}
}

// BenchmarkFig12ROC regenerates the four-detector ROC comparison.
func BenchmarkFig12ROC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Curves[0].AUC, "phase-mog-auc")
		b.ReportMetric(r.CycleTPRAtFPR1, "cycle-tpr@fpr0.1")
	}
}

// BenchmarkFig13Sensitivity regenerates the displacement-sensitivity
// curves.
func BenchmarkFig13Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[1].PhaseRate, "phase@2cm")
		b.ReportMetric(r.Rows[1].RSSRate, "rss@2cm")
	}
}

// BenchmarkFig14Learning regenerates the learning curve.
func BenchmarkFig14Learning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		var at67 float64
		for _, row := range r.Rows {
			if row.TrainMS == 1490 {
				at67 = row.Accuracy
			}
		}
		b.ReportMetric(at67, "accuracy@67reads")
	}
}

// BenchmarkFig15Feasibility2 regenerates the 2-of-40 schedule-feasibility
// study.
func BenchmarkFig15Feasibility2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchOpts(i), 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanTargetTW/r.MeanTargetAll, "tagwatch-gain")
		b.ReportMetric(r.MeanTargetNV/r.MeanTargetAll, "naive-gain")
	}
}

// BenchmarkFig16Feasibility5 regenerates the 5-of-40 variant.
func BenchmarkFig16Feasibility5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchOpts(i), 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanTargetTW/r.MeanTargetAll, "tagwatch-gain")
		b.ReportMetric(r.MeanTargetNV/r.MeanTargetAll, "naive-gain")
	}
}

// BenchmarkFig17ScheduleCost regenerates the schedule-cost CDF.
func BenchmarkFig17ScheduleCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.P50.Microseconds())/1000, "p50-ms")
		b.ReportMetric(float64(r.P90.Microseconds())/1000, "p90-ms")
	}
}

// BenchmarkFig18IRRGain regenerates the headline IRR-gain sweep.
func BenchmarkFig18IRRGain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig18(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].TagwatchP50, "gain@5pct")
		b.ReportMetric(r.Rows[1].TagwatchP50, "gain@10pct")
	}
}

// BenchmarkFitCostModel regenerates the §2.3 least-squares calibration of
// τ₀ and τ̄ (reported by Fig 2's machinery).
func BenchmarkFitCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig02(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.FitTau0.Microseconds())/1000, "tau0-ms")
		b.ReportMetric(float64(r.FitTauBar.Microseconds())/1000, "taubar-ms")
	}
}
