package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"tagwatch/internal/aloha"
	"tagwatch/internal/reader"
	"tagwatch/internal/stats"
)

// Fig02Row is one population size of the IRR study.
type Fig02Row struct {
	N int
	// MeasuredHz maps initial Q → mean measured IRR.
	MeasuredHz map[int]float64
	// ModelHz is Λ(n) under the fitted cost model.
	ModelHz float64
}

// Fig02Result is the §2.3 empirical reading-rate study: measured IRR
// across populations and initial Q settings, plus the least-squares fit of
// the cost model C(n) = τ₀ + τ̄·n·e·ln n.
type Fig02Result struct {
	Rows       []Fig02Row
	InitialQs  []int
	FitTau0    time.Duration
	FitTauBar  time.Duration
	RMSEms     float64
	DropFrac   float64 // 1 − IRR(max n)/IRR(1): the paper's 84% collapse
	PaperTau0  time.Duration
	PaperTauBa time.Duration
}

// Fig02 measures IRR for 1..40 tags with several initial Q settings and
// fits τ₀, τ̄ exactly as the paper does.
func Fig02(opt Options) (Fig02Result, error) {
	res := Fig02Result{
		InitialQs:  []int{0, 2, 4, 6},
		PaperTau0:  19 * time.Millisecond,
		PaperTauBa: 180 * time.Microsecond,
	}
	reps := opt.pick(5, 50)
	ns := []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40}

	var ones, basis, y []float64
	meanIRR := make(map[int]float64) // n -> mean across Qs (for fit)
	for _, n := range ns {
		row := Fig02Row{N: n, MeasuredHz: make(map[int]float64)}
		var rowMean float64
		for _, q := range res.InitialQs {
			rng := rand.New(rand.NewSource(opt.Seed + int64(1000*n+q)))
			scn, _, err := gridScene(rng, n)
			if err != nil {
				return res, err
			}
			cfg := reader.DefaultConfig()
			cfg.Strategy = aloha.NewQAdaptive(uint8(q))
			r := reader.New(cfg, scn)
			var total time.Duration
			for i := 0; i < reps; i++ {
				d := r.RunRound(reader.RoundOpts{Antenna: 1}, nil)
				total += d
			}
			irr := float64(reps) * float64(time.Second) / float64(total)
			row.MeasuredHz[q] = irr
			rowMean += irr
		}
		rowMean /= float64(len(res.InitialQs))
		meanIRR[n] = rowMean
		ones = append(ones, 1)
		basis = append(basis, aloha.CostBasis(n))
		y = append(y, 1000/rowMean) // mean round time in ms
		res.Rows = append(res.Rows, row)
	}

	tau0, tauBar, err := stats.LeastSquares2(ones, basis, y)
	if err != nil {
		return res, fmt.Errorf("fig02: fit: %w", err)
	}
	res.FitTau0 = time.Duration(tau0 * float64(time.Millisecond))
	res.FitTauBar = time.Duration(tauBar * float64(time.Millisecond))
	model := aloha.CostModel{Tau0: res.FitTau0, TauBar: res.FitTauBar}
	var pred []float64
	for i := range res.Rows {
		res.Rows[i].ModelHz = model.IRR(res.Rows[i].N)
		pred = append(pred, 1000*float64(model.Cost(res.Rows[i].N))/float64(time.Second))
	}
	res.RMSEms = stats.RMSE(pred, y)
	res.DropFrac = 1 - meanIRR[ns[len(ns)-1]]/meanIRR[1]
	return res, nil
}

// String renders the Fig. 2 table.
func (r Fig02Result) String() string {
	t := &table{header: []string{"n", "Q0=0", "Q0=2", "Q0=4", "Q0=6", "model"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.N),
			fmt.Sprintf("%.1f", row.MeasuredHz[0]),
			fmt.Sprintf("%.1f", row.MeasuredHz[2]),
			fmt.Sprintf("%.1f", row.MeasuredHz[4]),
			fmt.Sprintf("%.1f", row.MeasuredHz[6]),
			fmt.Sprintf("%.1f", row.ModelHz),
		)
	}
	return fmt.Sprintf(`Fig 2 — IRR (Hz) vs population, by initial Q, with fitted model
%s
fit: τ0=%v τ̄=%v (paper: 19ms / 180µs)   RMSE=%.2f ms
IRR collapse 1→%d tags: %.0f%% (paper: 84%%)
`, t, r.FitTau0.Round(time.Microsecond), r.FitTauBar.Round(time.Microsecond),
		r.RMSEms, r.Rows[len(r.Rows)-1].N, 100*r.DropFrac)
}
