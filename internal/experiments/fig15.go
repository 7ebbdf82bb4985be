package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/reader"
	"tagwatch/internal/schedule"
)

// Fig15Tag is one tag's IRR under the three reading modes.
type Fig15Tag struct {
	EPC       epc.EPC
	Target    bool
	ReadAllHz float64
	Tagwatch  float64
	NaiveHz   float64
}

// Fig15Result is the schedule-feasibility study of Figs. 15/16: per-tag
// IRRs for "reading all", Tagwatch's bitmask schedule, and the naive
// EPC-per-target schedule, with targets pinned via configuration (the
// paper isolates Phase II by labelling targets directly).
type Fig15Result struct {
	Targets       int
	Total         int
	Tags          []Fig15Tag
	MeanTargetAll float64
	MeanTargetTW  float64
	MeanTargetNV  float64
	PlanMasks     int
	Collateral    int
}

// Fig15 runs the feasibility experiment with the given number of pinned
// targets out of 40 tags (2 reproduces Fig. 15, 5 reproduces Fig. 16).
func Fig15(opt Options, targets int) (Fig15Result, error) {
	const total = 40
	res := Fig15Result{Targets: targets, Total: total}
	dwell := time.Duration(opt.pick(3, 10)) * time.Second

	// Build three identical rigs (same seed → same EPCs and layout).
	build := func() (*core.SimDevice, []epc.EPC) {
		rng := rand.New(rand.NewSource(opt.Seed))
		scn, codes, err := gridScene(rng, total)
		if err != nil {
			panic(err)
		}
		return core.NewSimDevice(reader.New(readerConfig(1), scn)), codes
	}

	// Arm 1: reading all.
	devAll, codes := build()
	startAll := devAll.Now()
	allReads := devAll.ReadAllFor(dwell)
	allSpan := devAll.Now() - startAll
	allCount := map[epc.EPC]int{}
	for _, r := range allReads {
		allCount[r.EPC]++
	}

	targetSet := codes[:targets]
	isTarget := map[epc.EPC]bool{}
	for _, c := range targetSet {
		isTarget[c] = true
	}

	// Phase II schedules from the index table over the full population.
	it, err := schedule.NewIndexTable(schedule.DefaultConfig(), codes)
	if err != nil {
		return res, err
	}
	plan, err := it.Select(targetSet)
	if err != nil {
		return res, err
	}
	res.PlanMasks = len(plan.Masks)
	res.Collateral = plan.Collateral
	naive := it.NaivePlan(targetSet)

	runSelective := func(p schedule.Plan) (map[epc.EPC]int, time.Duration) {
		dev, _ := build()
		start := dev.Now()
		count := map[epc.EPC]int{}
		_ = dev.ReadSelective(p.Bitmasks(), dwell, func(batch []core.Reading) { // SimDevice cannot fail
			for _, r := range batch {
				count[r.EPC]++
			}
		})
		return count, dev.Now() - start
	}
	twCount, twSpan := runSelective(plan)
	nvCount, nvSpan := runSelective(naive)

	var sumAll, sumTW, sumNV float64
	for _, c := range codes {
		tag := Fig15Tag{
			EPC:       c,
			Target:    isTarget[c],
			ReadAllHz: hz(allCount[c], allSpan),
			Tagwatch:  hz(twCount[c], twSpan),
			NaiveHz:   hz(nvCount[c], nvSpan),
		}
		res.Tags = append(res.Tags, tag)
		if tag.Target {
			sumAll += tag.ReadAllHz
			sumTW += tag.Tagwatch
			sumNV += tag.NaiveHz
		}
	}
	res.MeanTargetAll = sumAll / float64(targets)
	res.MeanTargetTW = sumTW / float64(targets)
	res.MeanTargetNV = sumNV / float64(targets)
	return res, nil
}

// String renders the per-tag IRR bars (targets and any collaterally read
// tags; fully suppressed tags are summarised).
func (r Fig15Result) String() string {
	t := &table{header: []string{"tag", "role", "read-all", "tagwatch", "naive"}}
	suppressed := 0
	for i, tag := range r.Tags {
		if !tag.Target && tag.Tagwatch == 0 && tag.NaiveHz == 0 {
			suppressed++
			continue
		}
		role := "target"
		if !tag.Target {
			role = "collateral"
		}
		t.add(fmt.Sprintf("#%d", i+1), role,
			fmt.Sprintf("%.1f", tag.ReadAllHz),
			fmt.Sprintf("%.1f", tag.Tagwatch),
			fmt.Sprintf("%.1f", tag.NaiveHz))
	}
	return fmt.Sprintf(`Fig %s — schedule feasibility: %d targets of %d tags (IRR in Hz)
(paper Fig 15, 2/40: read-all ≈13 Hz → Tagwatch ≈47 Hz (+261%%), naive ≈24 Hz;
 paper Fig 16, 5/40: Tagwatch +120%%, naive *below* read-all)
%s(%d stationary non-targets suppressed to ≈0 Hz in both selective modes)
plan: %d mask(s), %d collateral tag(s)
mean target IRR: read-all %.1f Hz | tagwatch %.1f Hz (%+.0f%%) | naive %.1f Hz (%+.0f%%)
`, figNo(r.Targets), r.Targets, r.Total, t, suppressed,
		r.PlanMasks, r.Collateral,
		r.MeanTargetAll,
		r.MeanTargetTW, 100*(r.MeanTargetTW/r.MeanTargetAll-1),
		r.MeanTargetNV, 100*(r.MeanTargetNV/r.MeanTargetAll-1))
}

func figNo(targets int) string {
	if targets <= 2 {
		return "15"
	}
	return "16"
}
