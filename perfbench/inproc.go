package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
	"tagwatch/internal/schedule"
)

// scale sizes a workload. The full sizes are the benchmark; tests run
// shrunken ones.
type scale struct {
	tags    int           // tags on the scene (residents on conveyor-churn)
	movers  int           // turntable movers (fleet-wire, turntable-400)
	warmup  int           // warm-up cycles inside setup
	cycles  int           // measured cycles
	cool    int           // cool-down cycles after the measured ones (fleet-wire)
	dwell   time.Duration // Phase II dwell
	repeats int           // set-ups per run; setup_s is their median
}

// warmupFor is Fig. 18's warm-up, 6 + n/25 cycles (establishing an
// immobility mode takes a number of flood rounds that grows with the
// population), plus ten cycles for the restless set to settle. Without
// them the first measured cycles still fall back to read-all now and
// then, a share that varies with the seed and spreads every timing.
func warmupFor(n int) int { return 6 + n/25 + 10 }

// turntableScene is the Fig. 18 rig: one antenna, n tags in a grid on
// the floor, the first nMob of them riding a turntable.
func turntableScene(seed int64, n, nMob int) (*scene.Scene, error) {
	rng := rand.New(rand.NewSource(seed))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	codes, err := epc.RandomPopulation(rng, n, 96)
	if err != nil {
		return nil, err
	}
	for i, c := range codes {
		if i < nMob {
			scn.AddTag(c, scene.Circle{Center: rf.Pt(2, 2, 0), Radius: 0.2, Speed: 0.7, StartAngle: float64(i) * 0.7})
			continue
		}
		j := i - nMob
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.4+float64(j%20)*0.15, 0.4+float64(j/20)*0.15, 0)})
	}
	return scn, nil
}

// Conveyor geometry: the antenna reads to about 13 m, so a belt from
// x = -16 m to x = +16 m starts and ends out of range, and a parcel at
// 1.5 m/s spends about 17 s in the field. Departures every 2.2-3.1 s
// keep 5-8 parcels in the field at once.
const (
	beltFrom  = -16.0
	beltTo    = 16.0
	beltSpeed = 1.5
)

// conveyorScene parks residents around the antenna and schedules
// parcels along the belt for the whole virtual horizon.
func conveyorScene(seed int64, residents int, horizon time.Duration) (*scene.Scene, error) {
	rng := rand.New(rand.NewSource(seed))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	secs := (beltTo - beltFrom) / beltSpeed
	travel := time.Duration(secs * float64(time.Second))
	var departs []time.Duration
	for t := time.Duration(0); t < horizon; t += 2200*time.Millisecond + time.Duration(rng.Int63n(int64(900*time.Millisecond))) {
		departs = append(departs, t)
	}
	codes, err := epc.RandomPopulation(rng, residents+len(departs), 96)
	if err != nil {
		return nil, err
	}
	for i, c := range codes[:residents] {
		scn.AddTag(c, scene.Stationary{P: rf.Pt(-3+float64(i%20)*0.3, -3-float64(i/20)*0.3, 0.4)})
	}
	for i, c := range codes[residents:] {
		scn.AddTag(c, scene.Line{
			Start: rf.Pt(beltFrom, 0.5+0.1*rng.Float64(), 0.8), Dir: rf.Pt(1, 0, 0), Speed: beltSpeed,
			Depart: departs[i], Arrive: departs[i] + travel,
		})
	}
	return scn, nil
}

// inprocWorkload is a workload that runs the middleware in-process over
// the simulator.
type inprocWorkload struct {
	sc    scale
	scene func(seed int64) (*scene.Scene, error)
}

func turntable400(small bool) inprocWorkload {
	sc := scale{tags: 400, movers: 20, cycles: 120, dwell: 5 * time.Second, repeats: 3}
	if small {
		sc = scale{tags: 40, movers: 2, cycles: 110, dwell: 500 * time.Millisecond, repeats: 2}
	}
	sc.warmup = warmupFor(sc.tags)
	return inprocWorkload{sc: sc, scene: func(seed int64) (*scene.Scene, error) {
		return turntableScene(seed, sc.tags, sc.movers)
	}}
}

func conveyorChurn(small bool) inprocWorkload {
	sc := scale{tags: 300, cycles: 200, dwell: 5 * time.Second, repeats: 3}
	if small {
		sc = scale{tags: 30, cycles: 110, dwell: 2 * time.Second, repeats: 2}
	}
	sc.warmup = warmupFor(sc.tags)
	// Each cycle lasts the dwell plus Phase I; leave slack so parcels
	// keep coming until the last measured cycle ends.
	horizon := time.Duration(sc.warmup+sc.cycles+4) * (sc.dwell + 2*time.Second)
	return inprocWorkload{sc: sc, scene: func(seed int64) (*scene.Scene, error) {
		return conveyorScene(seed, sc.tags, horizon)
	}}
}

// inprocRig is one constructed middleware over its own simulator.
type inprocRig struct {
	dev   *core.SimDevice
	tw    *core.Tagwatch
	truth map[epc.EPC]*scene.Tag
	sub   *subscriber
	// tableKey is the present set of the last selective warm-up cycle
	// (traced runs), where core's cached index table stands.
	tableKey uint64
}

// subscriber is the rig's core subscriber: the last consumer of every
// reading in-process. It tallies into fixed-size state only.
type subscriber struct {
	dev       *core.SimDevice
	truth     map[epc.EPC]*scene.Tag
	measuring bool
	readings  int
	moverRead int
	age       hist // device clock at delivery − air time
	lag       hist // wall time since the delivery batch began
	// A delivery batch is the readings one phase hands over together;
	// the device clock stands still while they are delivered.
	batchClock time.Duration
	batchWall  time.Time
	lastWall   time.Time
	// batches collects (start, end) of delivery batches in the traced
	// run, one cycle at a time.
	traced  bool
	batches [][2]time.Time
}

func (s *subscriber) deliver(r core.Reading) {
	if !s.measuring {
		return
	}
	now := time.Now()
	clock := s.dev.Now()
	if clock != s.batchClock || s.batchWall.IsZero() {
		if s.traced && !s.batchWall.IsZero() {
			s.batches = append(s.batches, [2]time.Time{s.batchWall, s.lastWall})
		}
		s.batchClock, s.batchWall = clock, now
	}
	s.lastWall = now
	s.readings++
	s.age.add(clock - r.Time)
	s.lag.add(now.Sub(s.batchWall))
	if t := s.truth[r.EPC]; t != nil && t.Traj.Moving(r.Time) {
		s.moverRead++
	}
}

// flushBatches returns the traced delivery batches so far, closing the
// open one.
func (s *subscriber) flushBatches() [][2]time.Time {
	if !s.batchWall.IsZero() {
		s.batches = append(s.batches, [2]time.Time{s.batchWall, s.lastWall})
		s.batchWall = time.Time{}
	}
	out := s.batches
	s.batches = s.batches[:0]
	return out
}

// build constructs the scene, reader and middleware and runs the
// warm-up cycles: everything setup_s covers.
func (w inprocWorkload) build(r *run) (*inprocRig, error) {
	t0 := time.Now()
	scn, err := w.scene(r.opts.seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	dev := core.NewSimDevice(reader.New(reader.DefaultConfig(), scn))
	cfg := core.DefaultConfig()
	cfg.PhaseIIDwell = w.sc.dwell
	tw := core.New(cfg, dev)
	rig := &inprocRig{dev: dev, tw: tw, truth: make(map[epc.EPC]*scene.Tag, len(scn.Tags))}
	for _, t := range scn.Tags {
		rig.truth[t.EPC] = t
	}
	rig.sub = &subscriber{dev: dev, truth: rig.truth, traced: r.opts.trace}
	tw.Subscribe(rig.sub.deliver)
	t2 := time.Now()
	for i := 0; i < w.sc.warmup; i++ {
		rep := tw.RunCycle()
		if rep.Err != nil {
			return nil, fmt.Errorf("warm-up cycle %d: %w", i, rep.Err)
		}
		if r.opts.trace && !rep.FellBack {
			rig.tableKey = setKey(rep.Present)
		}
	}
	t3 := time.Now()
	parent := r.spans.add("setup", 0, -1, t0, t3)
	r.spans.add("setup.scene", parent, -1, t0, t1)
	r.spans.add("setup.middleware", parent, -1, t1, t2)
	r.spans.add("setup.warmup", parent, -1, t2, t3)
	return rig, nil
}

// cycleInputs are one selective cycle's planner inputs and output,
// kept in the traced run for the replay.
type cycleInputs struct {
	cycle   int
	present []epc.EPC
	targets []epc.EPC
	plan    schedule.Plan
	// rebuilt marks a cycle on which core rebuilt its cached index table
	// because the present set changed.
	rebuilt bool
}

// runInproc runs an in-process workload: set-up, measured cycles, then
// (untimed) the read-all reference and, when traced, the planner replay.
func runInproc(r *run, w inprocWorkload) error {
	rig, err := setup(r, w.sc.repeats, func(bool) (*inprocRig, error) { return w.build(r) }, func(*inprocRig) {})
	if err != nil {
		return err
	}
	sub := rig.sub
	var (
		costs, cycleMS           []float64
		tally                    verdicts
		masks, collateral        int
		targets, fallbacks       int
		p2Reads, p2TargetReads   int
		present, mobile          int
		inputs                   []cycleInputs
		tableKey                 = rig.tableKey
		targetSet                = map[epc.EPC]bool{}
		readerFrom               = rig.dev.R.Stats()
		measureSpan              int
		windowStart, windowClose time.Duration
	)
	windowStart = rig.dev.Now()
	sub.measuring = true
	if err := r.startProfile(); err != nil {
		return err
	}
	from := takeMark()
	measureSpan = r.spans.reserve("measure", 0, -1, from.wall)
	for i := 0; i < w.sc.cycles; i++ {
		phaseI := rig.dev.Now()
		c0 := time.Now()
		rep := rig.tw.RunCycle()
		c1 := time.Now()
		r.attempts++
		if rep.Err != nil {
			r.fail("cycle %d: %v", i, rep.Err)
		}
		costs = append(costs, float64(rep.ScheduleCost))
		cycleMS = append(cycleMS, float64(c1.Sub(c0)))
		r.digestf("%d/%d/%d:", len(rep.PhaseIReads), len(rep.PhaseIIReads), len(rep.Plan.Masks))
		for _, m := range rep.Plan.Masks {
			r.digestf("%s,", m.Bitmask)
		}
		tally.addCycle(rep.Present, rep.Mobile, func(c epc.EPC) bool {
			t := rig.truth[c]
			return t != nil && t.Traj.Moving(phaseI)
		})
		present += len(rep.Present)
		mobile += len(rep.Mobile)
		targets += len(rep.Targets)
		if rep.FellBack {
			fallbacks++
		} else {
			masks += len(rep.Plan.Masks)
			collateral += rep.Plan.Collateral
			clear(targetSet)
			for _, c := range rep.Targets {
				targetSet[c] = true
			}
			for _, rd := range rep.PhaseIIReads {
				if targetSet[rd.EPC] {
					p2TargetReads++
				}
			}
			p2Reads += len(rep.PhaseIIReads)
		}
		if r.opts.trace {
			if !rep.FellBack {
				// Core caches its index table and rebuilds it only when a
				// selective cycle's present set changed; mirror that to count
				// the rebuilds.
				key := setKey(rep.Present)
				inputs = append(inputs, cycleInputs{
					cycle: i, present: rep.Present, targets: rep.Targets, plan: rep.Plan,
					rebuilt: key != tableKey,
				})
				tableKey = key
			}
			cyc := r.spans.add("cycle", measureSpan, i, c0, c1)
			for _, b := range sub.flushBatches() {
				r.spans.add("subscriber", cyc, i, b[0], b[1])
			}
		}
	}
	to := takeMark()
	r.spans.close(measureSpan, to.wall)
	if err := r.stopProfile(); err != nil {
		return err
	}
	sub.measuring = false
	windowClose = rig.dev.Now()
	r.setE2E("live_heap_mb", liveHeapMB())
	r.measured(from, to, sub.readings)

	p50, err50 := percentile(costs, 0.5)
	r.setPercentile(r.setLayer, "schedule_cost_p50_ms", p50, err50)
	p90, err90 := percentile(costs, 0.9)
	r.setPercentile(r.setLayer, "schedule_cost_p90_ms", p90, err90)
	age, errAge := sub.age.quantile(0.5)
	r.setPercentile(r.setE2E, "reading_age_p50_ms", age, errAge)
	lag50, errLag50 := sub.lag.quantile(0.5)
	r.setPercentile(r.setLayer, "edge_lag_p50_ms", lag50, errLag50)
	lag90, errLag90 := sub.lag.quantile(0.9)
	r.setPercentile(r.setLayer, "edge_lag_p90_ms", lag90, errLag90)
	tally.report(r)

	// The read-all reference: an identically seeded scene read by plain
	// inventory over the same virtual window. Not timed.
	window := windowClose - windowStart
	refRate, err := readAllReference(w.scene, r.opts.seed, windowStart, window)
	if err != nil {
		return err
	}
	if refRate == 0 {
		r.fail("read-all reference read no movers")
	} else {
		r.setE2E("irr_gain", ratio(float64(sub.moverRead)/window.Seconds(), refRate))
	}

	n := float64(w.sc.cycles)
	selective := n - float64(fallbacks)
	st := rig.dev.R.Stats()
	r.setLayer("core.cycle_ms_p50", median(cycleMS)/float64(time.Millisecond))
	r.setLayer("core.fallback_share", float64(fallbacks)/n)
	r.setLayer("core.targets_per_cycle", float64(targets)/n)
	r.setLayer("schedule.masks_per_cycle", ratio(float64(masks), selective))
	r.setLayer("schedule.collateral_per_cycle", ratio(float64(collateral), selective))
	r.setLayer("schedule.target_read_share", ratio(float64(p2TargetReads), float64(p2Reads)))
	r.setLayer("motion.tracked_tags", float64(rig.tw.Detector().TrackedTags()))
	r.setLayer("motion.restless_share", ratio(float64(mobile), float64(present)))
	r.setLayer("reader.slots_per_read", ratio(float64(st.Slots-readerFrom.Slots), float64(st.Reads-readerFrom.Reads)))
	r.setLayer("reader.collision_share", ratio(float64(st.Collisions-readerFrom.Collisions), float64(st.Slots-readerFrom.Slots)))
	r.setLayer("reader.rounds_per_cycle", float64(st.Rounds-readerFrom.Rounds)/n)
	for _, name := range []string{
		"llrp.bytes_per_reading", "fleet.events_per_reading", "fleet.bus_dropped_per_cycle",
		"edge.sse_bytes_per_event", "edge.resyncs_per_cycle", "edge.gaps_reset",
		"edge.contiguity_violations", "statestore.bytes_written",
	} {
		r.setLayer(name, 0) // the in-process workloads never reach the wire
	}
	if r.opts.trace {
		replayPlanner(r, inputs)
	}
	return nil
}

// replayPlanner re-runs each selective cycle's planning on its recorded
// inputs, NewIndexTable on the present set and Select on the targets,
// timing both; the replayed plan must equal the executed one. The index
// table sorts its population, so a fresh table equals core's cached one.
func replayPlanner(r *run, inputs []cycleInputs) {
	cfg := core.DefaultConfig().Schedule
	var selectMS, tableMS []float64
	builds := 0
	for _, in := range inputs {
		if in.rebuilt {
			builds++
		}
		t0 := time.Now()
		table, err := schedule.NewIndexTable(cfg, in.present)
		t1 := time.Now()
		if err != nil {
			r.fail("replay cycle %d: index table: %v", in.cycle, err)
			continue
		}
		plan, err := table.Select(in.targets)
		t2 := time.Now()
		parent := r.spans.add("replay", 0, in.cycle, t0, t2)
		r.spans.add("replay.table", parent, in.cycle, t0, t1)
		r.spans.add("replay.select", parent, in.cycle, t1, t2)
		tableMS = append(tableMS, float64(t1.Sub(t0)))
		selectMS = append(selectMS, float64(t2.Sub(t1)))
		if err != nil || !reflect.DeepEqual(plan, in.plan) {
			r.fail("replay cycle %d: replayed plan differs from the executed plan (err %v)", in.cycle, err)
		}
	}
	r.setLayer("schedule.select_ms_p50", median(selectMS)/float64(time.Millisecond))
	r.setLayer("schedule.table_ms_p50", median(tableMS)/float64(time.Millisecond))
	r.setLayer("schedule.table_builds", float64(builds))
}

// readAllReference measures movers' readings per virtual second under
// plain read-all on a freshly built, identically seeded scene, over the
// virtual window [start, start+window).
func readAllReference(build func(int64) (*scene.Scene, error), seed int64, start, window time.Duration) (float64, error) {
	scn, err := build(seed)
	if err != nil {
		return 0, err
	}
	rd := reader.New(reader.DefaultConfig(), scn)
	rd.Advance(start)
	dev := core.NewSimDevice(rd)
	from := dev.Now()
	reads := dev.ReadAllFor(window)
	span := dev.Now() - from
	movers := 0
	truth := make(map[epc.EPC]*scene.Tag, len(scn.Tags))
	for _, t := range scn.Tags {
		truth[t.EPC] = t
	}
	for _, rd := range reads {
		if t := truth[rd.EPC]; t != nil && t.Traj.Moving(rd.Time) {
			movers++
		}
	}
	return ratio(float64(movers), span.Seconds()), nil
}

// verdicts tallies mobility verdicts against ground truth.
type verdicts struct{ tp, fp, fn int }

// addCycle scores one cycle: every present tag's verdict (mobile or
// not) against whether it was really moving.
func (v *verdicts) addCycle(present, mobile []epc.EPC, moving func(epc.EPC) bool) {
	isMobile := make(map[epc.EPC]bool, len(mobile))
	for _, c := range mobile {
		isMobile[c] = true
	}
	for _, c := range present {
		v.add(isMobile[c], moving(c))
	}
}

func (v *verdicts) add(mobile, moving bool) {
	switch {
	case mobile && moving:
		v.tp++
	case mobile:
		v.fp++
	case moving:
		v.fn++
	}
}

func (v verdicts) report(r *run) {
	if v.tp == 0 {
		r.fail("no mover was ever detected (tp=%d fp=%d fn=%d)", v.tp, v.fp, v.fn)
		return
	}
	r.setE2E("mover_recall", float64(v.tp)/float64(v.tp+v.fn))
	r.setE2E("mover_precision", float64(v.tp)/float64(v.tp+v.fp))
}

// setKey is an order-insensitive fingerprint of a tag set.
func setKey(codes []epc.EPC) uint64 {
	var acc uint64
	for _, c := range codes {
		h := fnv.New64a()
		h.Write([]byte(c.String()))
		acc ^= h.Sum64()
	}
	return acc ^ uint64(len(codes))
}
