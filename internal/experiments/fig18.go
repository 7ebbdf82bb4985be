package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/reader"
	"tagwatch/internal/stats"
)

// Fig18Row is the IRR-gain distribution for one mobile fraction.
type Fig18Row struct {
	Percent int
	// Filters is the reader's Select filter limit F: Phase II runs each
	// plan as union rounds of up to F masks.
	Filters                               int
	TagwatchP50, TagwatchP90, TagwatchStd float64
	NaiveP50, NaiveP90                    float64
	Populations                           []int
}

// Fig18Result is the overall IRR-gain study: the ratio of mobile tags' IRR
// under rate-adaptive reading to their IRR under reading-all, for 5%, 10%
// and 20% movers across population sizes, at F = 1 (§6: one inventory
// round per mask).
type Fig18Result struct {
	Rows   []Fig18Row
	Cycles int
}

// Fig18FusedResult repeats Fig. 18's Tagwatch arm on readers that fuse
// the plan's masks into union rounds; the naive columns stay zero.
type Fig18FusedResult struct {
	Rows   []Fig18Row // per mobile fraction, one row per filter limit
	Cycles int
}

// moverIRRPerCycle runs the middleware on a reader with Select filter
// limit filters and yields the movers' mean IRR for each post-warmup
// cycle.
func moverIRRPerCycle(seed int64, n, nMob, cycles, warm int, dwell time.Duration, naive bool, filters int) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	scn, movers, _, err := turntableScene(rng, n, nMob)
	if err != nil {
		return nil, err
	}
	isMover := map[epc.EPC]bool{}
	for _, m := range movers {
		isMover[m] = true
	}
	dev := core.NewSimDevice(reader.New(readerConfig(filters), scn))
	cfg := core.DefaultConfig()
	cfg.PhaseIIDwell = dwell
	cfg.StickyFor = 5 * dwell / 2
	cfg.NaiveSchedule = naive
	// The paper's Fig. 18 measures the scheduling economics all the way to
	// 20% movers (falling back is its *recommendation* above that point,
	// not part of the measurement), so the experiment raises the cutoff
	// out of the way.
	cfg.MobileCutoff = 0.5
	tw := core.New(cfg, dev)
	for i := 0; i < warm; i++ {
		tw.RunCycle()
	}
	var out []float64
	for i := 0; i < cycles; i++ {
		start := dev.Now()
		rep := tw.RunCycle()
		span := dev.Now() - start
		var reads int
		for _, r := range append(rep.PhaseIReads, rep.PhaseIIReads...) {
			if isMover[r.EPC] {
				reads++
			}
		}
		out = append(out, hz(reads, span)/float64(nMob))
	}
	return out, nil
}

// baselineMoverIRR measures the movers' IRR under plain reading-all on an
// identical rig.
func baselineMoverIRR(seed int64, n, nMob int, span time.Duration) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	scn, movers, _, err := turntableScene(rng, n, nMob)
	if err != nil {
		return 0, err
	}
	isMover := map[epc.EPC]bool{}
	for _, m := range movers {
		isMover[m] = true
	}
	dev := core.NewSimDevice(reader.New(readerConfig(1), scn))
	start := dev.Now()
	reads := dev.ReadAllFor(span)
	total := dev.Now() - start
	var count int
	for _, r := range reads {
		if isMover[r.EPC] {
			count++
		}
	}
	return hz(count, total) / float64(nMob), nil
}

// fig18Arm is one way Fig. 18 runs the middleware.
type fig18Arm struct {
	filters int  // the reader's Select filter limit F
	naive   bool // the naive EPC-per-target schedule instead of Tagwatch's
}

// fig18Sweep is Fig. 18's grid and what its arms measured on it.
type fig18Sweep struct {
	percents, populations []int
	cycles                int
	arms                  []fig18Arm
	// gains holds, per mobile fraction and arm, every post-warm-up
	// cycle's mover IRR gain over reading-all.
	gains [][][]float64
}

// runFig18 runs each arm over Fig. 18's mobile fractions and populations.
func runFig18(opt Options, arms []fig18Arm) (fig18Sweep, error) {
	sw := fig18Sweep{percents: []int{5, 10, 20}, populations: []int{50, 100, 200}, cycles: opt.pick(5, 30), arms: arms}
	if !opt.Quick {
		sw.populations = []int{50, 100, 200, 300, 400}
	}
	// Warm-up scales with population: establishing a channel's immobility
	// mode takes ~WeightFloor/α matches, and each flood round contributes
	// one match per tag, so larger populations (longer rounds, fewer per
	// dwell) vouch later.
	warmFor := func(n int) int { return 6 + n/25 }
	dwell := 5 * time.Second

	sw.gains = make([][][]float64, len(sw.percents))
	for p, pct := range sw.percents {
		sw.gains[p] = make([][]float64, len(arms))
		for _, n := range sw.populations {
			nMob := n * pct / 100
			if nMob < 1 {
				nMob = 1
			}
			seed := opt.Seed + int64(1000*pct+n)
			base, err := baselineMoverIRR(seed, n, nMob, time.Duration(sw.cycles)*(dwell+time.Second))
			if err != nil {
				return sw, err
			}
			if base <= 0 {
				return sw, fmt.Errorf("fig18: zero baseline IRR at n=%d", n)
			}
			for i, a := range arms {
				irr, err := moverIRRPerCycle(seed, n, nMob, sw.cycles, warmFor(n), dwell, a.naive, a.filters)
				if err != nil {
					return sw, err
				}
				for _, v := range irr {
					sw.gains[p][i] = append(sw.gains[p][i], v/base)
				}
			}
		}
	}
	return sw, nil
}

// row summarises arm i's Tagwatch gains at mobile fraction p.
func (sw fig18Sweep) row(p, i int) Fig18Row {
	tw := sw.gains[p][i]
	return Fig18Row{
		Percent: sw.percents[p], Filters: sw.arms[i].filters, Populations: sw.populations,
		TagwatchP50: stats.Median(tw),
		TagwatchP90: stats.Percentile(tw, 0.9),
		TagwatchStd: stats.StdDev(tw),
	}
}

// Fig18 sweeps the mobile fraction and population size, comparing Tagwatch
// and the naive schedule against reading-all.
func Fig18(opt Options) (Fig18Result, error) {
	sw, err := runFig18(opt, []fig18Arm{{1, false}, {1, true}})
	if err != nil {
		return Fig18Result{}, err
	}
	res := Fig18Result{Cycles: sw.cycles}
	for p := range sw.percents {
		row := sw.row(p, 0)
		row.NaiveP50 = stats.Median(sw.gains[p][1])
		row.NaiveP90 = stats.Percentile(sw.gains[p][1], 0.9)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fig18Fused repeats Fig. 18's Tagwatch arm with the plan's masks fused
// into union rounds of up to F = 2 and F = 8 masks, set through the
// reader's filter limit.
func Fig18Fused(opt Options) (Fig18FusedResult, error) {
	arms := []fig18Arm{{filters: 2}, {filters: 8}}
	sw, err := runFig18(opt, arms)
	if err != nil {
		return Fig18FusedResult{}, err
	}
	res := Fig18FusedResult{Cycles: sw.cycles}
	for p := range sw.percents {
		for i := range arms {
			res.Rows = append(res.Rows, sw.row(p, i))
		}
	}
	return res, nil
}

// String renders the gain table.
func (r Fig18Result) String() string {
	t := &table{header: []string{"%mobile", "tagwatch p50", "p90", "std", "naive p50", "naive p90"}}
	for _, row := range r.Rows {
		t.add(fmt.Sprintf("%d%%", row.Percent),
			fmt.Sprintf("%.2f×", row.TagwatchP50),
			fmt.Sprintf("%.2f×", row.TagwatchP90),
			fmt.Sprintf("%.2f", row.TagwatchStd),
			fmt.Sprintf("%.2f×", row.NaiveP50),
			fmt.Sprintf("%.2f×", row.NaiveP90))
	}
	return fmt.Sprintf(`Fig 18 — IRR gain of mobile tags vs reading-all (%d cycles per setting)
(paper: 5%% → 3.2× median / 4× p90 Tagwatch, 2.6× naive; 10%% → 1.9× (σ 0.29);
 20%% → ≈1.5× Tagwatch while naive drops to 0.8× — below reading-all)
%s`, r.Cycles, t)
}

// String renders the fused rows.
func (r Fig18FusedResult) String() string {
	t := &table{header: []string{"%mobile", "F", "tagwatch p50", "p90", "std"}}
	for _, row := range r.Rows {
		t.add(fmt.Sprintf("%d%%", row.Percent),
			fmt.Sprint(row.Filters),
			fmt.Sprintf("%.2f×", row.TagwatchP50),
			fmt.Sprintf("%.2f×", row.TagwatchP90),
			fmt.Sprintf("%.2f", row.TagwatchStd))
	}
	return fmt.Sprintf(`Fig 18, fused Phase II — one inventory round carries up to F masks as a union
(%d cycles per setting; the rows above are F = 1; the gain assumes τ₀ is paid once per round)
%s`, r.Cycles, t)
}
