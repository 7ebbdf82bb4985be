package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/guard"
	"tagwatch/internal/motion"
	"tagwatch/internal/schedule"
)

// Config tunes the Tagwatch middleware.
type Config struct {
	// Motion configures the Phase I GMM detector.
	Motion motion.Config
	// Schedule configures Phase II bitmask selection.
	Schedule schedule.Config
	// PhaseIIDwell is the length of the selective-reading phase; the paper
	// fixes 5 s ("the upper applications can adjust it").
	PhaseIIDwell time.Duration
	// MobileCutoff is the mobile-tag fraction above which the cycle falls
	// back to plain read-all (§3 Scope: "> 20%").
	MobileCutoff float64
	// Pinned lists user-configured tags that are always scheduled in
	// Phase II regardless of motion state (§5's configuration file).
	Pinned []epc.EPC
	// StickyFor keeps a tag in the target set for this long after its last
	// restless reading. One Phase I reading per cycle is a thin sample of
	// a mover's state; hysteresis turns a per-cycle detection probability
	// of p into a miss probability of (1−p)^k over k covered cycles, at
	// the cost of a false positive lingering a couple of cycles.
	StickyFor time.Duration
	// DepartAfter forgets a tag (models and history) when it has not been
	// read for this long; zero disables forgetting.
	DepartAfter time.Duration
	// HistoryDepth bounds the per-tag reading history retained.
	HistoryDepth int
	// NaiveSchedule replaces the greedy set-cover with the naive plan
	// (each target's full EPC as its own bitmask) — the baseline
	// "rate-adaptive" arm the paper compares against throughout §7.
	NaiveSchedule bool
}

// DefaultConfig returns the paper's system parameters.
func DefaultConfig() Config {
	return Config{
		Motion:       motion.DefaultConfig(),
		Schedule:     schedule.DefaultConfig(),
		PhaseIIDwell: 5 * time.Second,
		MobileCutoff: 0.2,
		StickyFor:    12 * time.Second,
		DepartAfter:  30 * time.Second,
		HistoryDepth: 256,
	}
}

// CycleReport summarises one two-phase reading cycle.
type CycleReport struct {
	// PhaseIReads and PhaseIIReads are the readings delivered by each
	// phase, in delivery order (both also reach subscribers and the
	// history as they stream).
	PhaseIReads  []Reading
	PhaseIIReads []Reading
	// Present is the set of distinct tags seen in Phase I.
	Present []epc.EPC
	// Mobile is the set assessed as moving this cycle.
	Mobile []epc.EPC
	// Targets is Mobile plus the present pinned tags.
	Targets []epc.EPC
	// Plan is the bitmask plan executed in Phase II (zero when the cycle
	// fell back to read-all).
	Plan schedule.Plan
	// FellBack reports the read-all fallback was taken (too many movers or
	// nothing to schedule).
	FellBack bool
	// ScheduleCost is the wall-clock planning gap between the end of
	// Phase I and the start of Phase II: target selection and bitmask
	// search — the Fig. 17 metric. Motion assessment is not in it: each
	// Phase I reading is assessed as its round is delivered, overlapping
	// the read.
	ScheduleCost time.Duration
	// PhaseIDuration and PhaseIIDuration are in device-virtual time.
	PhaseIDuration  time.Duration
	PhaseIIDuration time.Duration
	// Err is non-nil when the transport failed during the cycle: the
	// cycle's readings (possibly partial, possibly none) must not be
	// interpreted as an empty RF field. A Phase I failure skips Phase II
	// entirely — there is no point selectively reading over a dead link.
	Err error
}

// Healthy reports whether the cycle completed without transport failure.
func (r *CycleReport) Healthy() bool { return r.Err == nil }

// Metrics accumulates operational counters across the middleware's
// lifetime — what an operator dashboards.
type Metrics struct {
	Cycles    int
	Fallbacks int
	// CycleErrors counts cycles that ended with a transport error —
	// the degraded-operation signal an operator alerts on.
	CycleErrors      int
	PhaseIReadings   uint64
	PhaseIIReadings  uint64
	TargetsScheduled uint64
	MasksSelected    uint64
	// ScheduleCostTotal is the accumulated wall-clock planning time; the
	// mean (divided by Cycles) is the Fig. 17 quantity.
	ScheduleCostTotal time.Duration
	// ListenerPanics counts subscriber callbacks that panicked during
	// delivery. The panic is contained — one broken subscriber loses its
	// own readings, not everyone else's and not the cycle loop.
	ListenerPanics uint64
}

// Tagwatch is the middleware controller.
type Tagwatch struct {
	cfg Config
	dev Device
	det *motion.Detector

	// metricsMu guards the lifetime counters: serving layers snapshot them
	// while the cycle loop accumulates.
	metricsMu sync.Mutex
	metrics   Metrics

	history   *History
	listeners []func(Reading)

	pinned map[epc.EPC]bool
	// pinsDirty marks the pinned set as changed since the last
	// JournalRecords drain.
	pinsDirty bool
	// lastRestless is the hysteresis memory: device time of each tag's
	// most recent restless reading.
	lastRestless map[epc.EPC]time.Duration

	// table caches the schedule index; rebuilt when the population
	// changes.
	table *schedule.IndexTable
}

// New builds a Tagwatch instance over a device.
func New(cfg Config, dev Device) *Tagwatch {
	if cfg.PhaseIIDwell <= 0 {
		cfg.PhaseIIDwell = 5 * time.Second
	}
	if cfg.MobileCutoff <= 0 {
		cfg.MobileCutoff = 0.2
	}
	if cfg.HistoryDepth <= 0 {
		cfg.HistoryDepth = 256
	}
	tw := &Tagwatch{
		cfg:          cfg,
		dev:          dev,
		det:          motion.NewPhaseMoG(cfg.Motion),
		history:      NewHistory(cfg.HistoryDepth),
		pinned:       make(map[epc.EPC]bool, len(cfg.Pinned)),
		lastRestless: make(map[epc.EPC]time.Duration),
	}
	for _, p := range cfg.Pinned {
		tw.pinned[p] = true
	}
	return tw
}

// Subscribe registers a listener that receives every reading from both
// phases — the upper-application delivery path of Fig. 5. Listeners run
// on the cycle's goroutine while the phase streams: a reading arrives
// when its round ends, not when its phase does, and the next batch waits
// until the listeners return.
func (tw *Tagwatch) Subscribe(fn func(Reading)) {
	tw.listeners = append(tw.listeners, fn)
}

// History exposes the reading history database.
func (tw *Tagwatch) History() *History { return tw.history }

// Metrics returns a snapshot of the lifetime counters. Safe to call while
// a cycle runs.
func (tw *Tagwatch) Metrics() Metrics {
	tw.metricsMu.Lock()
	defer tw.metricsMu.Unlock()
	return tw.metrics
}

// Detector exposes the Phase I motion detector (experiments probe it).
func (tw *Tagwatch) Detector() *motion.Detector { return tw.det }

// Pin adds a tag to the always-schedule set at runtime.
func (tw *Tagwatch) Pin(code epc.EPC) {
	if !tw.pinned[code] {
		tw.pinned[code] = true
		tw.pinsDirty = true
	}
}

// Unpin removes a pinned tag.
func (tw *Tagwatch) Unpin(code epc.EPC) {
	if tw.pinned[code] {
		delete(tw.pinned, code)
		tw.pinsDirty = true
	}
}

// deliver records a reading in history and fans it out. Each listener
// runs contained: a panicking subscriber is counted and skipped for this
// reading; the remaining listeners and the cycle loop are unaffected.
func (tw *Tagwatch) deliver(r Reading) {
	tw.history.Add(r)
	for _, fn := range tw.listeners {
		if perr := guard.Call(func() { fn(r) }); perr != nil {
			tw.metricsMu.Lock()
			tw.metrics.ListenerPanics++
			tw.metricsMu.Unlock()
		}
	}
}

// assess feeds one reading through the motion detector and reports the
// verdict.
func (tw *Tagwatch) assess(r Reading) motion.Result {
	return tw.det.Observe(r.EPC, r.Antenna, r.Channel, r.PhaseRad, r.Time)
}

// RunCycle executes one complete Phase I + Phase II cycle and returns its
// report. Each batch the device emits is recorded, delivered and assessed
// before the device hands over the next.
func (tw *Tagwatch) RunCycle() CycleReport {
	var rep CycleReport

	// ---- Phase I: read everything once, assess motion. ----
	moving := make(map[epc.EPC]bool)
	p1Start := tw.dev.Now()
	p1Err := tw.dev.ReadAll(func(batch []Reading) {
		rep.PhaseIReads = append(rep.PhaseIReads, batch...)
		for _, r := range batch {
			tw.deliver(r)
			rep.Present = append(rep.Present, r.EPC)
			// Restless = fresh motion evidence OR mode churn: the latter is
			// what keeps periodic movers (turntables, circular tracks)
			// visible once their phase range has been fully absorbed into
			// modes.
			if tw.assess(r).Restless() {
				moving[r.EPC] = true
				tw.lastRestless[r.EPC] = r.Time
			}
		}
	})
	rep.PhaseIDuration = tw.dev.Now() - p1Start

	planStart := time.Now() // wall clock: the Fig. 17 schedule cost
	now := tw.dev.Now()
	// EPC byte order makes the lists, and so the plan's tie-breaks,
	// independent of map iteration order.
	slices.SortFunc(rep.Present, epc.Compare)
	rep.Present = slices.Compact(rep.Present)
	for _, code := range rep.Present {
		if moving[code] {
			rep.Mobile = append(rep.Mobile, code)
		}
		sticky := false
		if last, ok := tw.lastRestless[code]; ok && tw.cfg.StickyFor > 0 && now-last <= tw.cfg.StickyFor {
			sticky = true
		}
		if moving[code] || sticky || tw.pinned[code] {
			rep.Targets = append(rep.Targets, code)
		}
	}

	// ---- Degrade: a failed Phase I skips Phase II entirely. ----
	// The partial readings above were still delivered and assessed (they
	// are real observations), but scheduling a selective dwell over a
	// dead link would just spin; surface the error and let the caller's
	// backoff take over.
	if p1Err != nil {
		rep.Err = fmt.Errorf("phase I: %w", p1Err)
		rep.ScheduleCost = time.Since(planStart)
		tw.finishCycle(&rep)
		return rep
	}

	// ---- Decide: schedule or fall back. ----
	fallback := len(rep.Targets) == 0 ||
		float64(len(rep.Targets)) > tw.cfg.MobileCutoff*float64(len(rep.Present))
	var plan schedule.Plan
	if !fallback {
		tw.ensureTable(rep.Present)
		if tw.table == nil {
			fallback = true
		} else if tw.cfg.NaiveSchedule {
			plan = tw.table.NaivePlan(rep.Targets)
		} else {
			p, err := tw.table.Select(rep.Targets)
			if err != nil {
				fallback = true
			} else {
				plan = p
			}
		}
	}
	rep.Plan = plan
	rep.FellBack = fallback
	rep.ScheduleCost = time.Since(planStart)

	// ---- Phase II: selective reading (or read-all fallback). ----
	restless2 := make(map[epc.EPC]int)
	lastAt := make(map[epc.EPC]time.Duration)
	emit := func(batch []Reading) {
		rep.PhaseIIReads = append(rep.PhaseIIReads, batch...)
		for _, r := range batch {
			tw.deliver(r)
			// Phase II readings also feed the immobility models — this is
			// how a newly learned multipath mode stabilises within one cycle
			// (§4.3 "When do we learn Gaussian models?") — and refresh the
			// hysteresis, so a mover being selectively read stays targeted
			// without depending on its single Phase I sample each cycle. A
			// single restless reading in a long flood is noise; demand two.
			if tw.assess(r).Restless() {
				restless2[r.EPC]++
				lastAt[r.EPC] = r.Time
			}
		}
	}
	p2Start := tw.dev.Now()
	var p2Err error
	if !fallback {
		p2Err = tw.dev.ReadSelective(plan.Bitmasks(), tw.cfg.PhaseIIDwell, emit)
	} else if dr, ok := tw.dev.(dwellReader); ok {
		dr.readAllFor(tw.cfg.PhaseIIDwell, emit)
	} else {
		// Generic devices: repeated full passes until the dwell is
		// consumed in device time. A dead transport emits nothing and
		// never advances the clock — bail rather than spin.
		deadline := tw.dev.Now() + tw.cfg.PhaseIIDwell
		for tw.dev.Now() < deadline {
			before, read := tw.dev.Now(), len(rep.PhaseIIReads)
			if p2Err = tw.dev.ReadAll(emit); p2Err != nil {
				break
			}
			if len(rep.PhaseIIReads) == read && tw.dev.Now() == before {
				break
			}
		}
	}
	if p2Err != nil {
		rep.Err = fmt.Errorf("phase II: %w", p2Err)
	}
	rep.PhaseIIDuration = tw.dev.Now() - p2Start
	for code, n := range restless2 {
		if n >= 2 {
			tw.lastRestless[code] = lastAt[code]
		}
	}

	tw.finishCycle(&rep)
	return rep
}

// finishCycle accumulates metrics and prunes departed tags — shared by
// the healthy path and the degraded early return.
func (tw *Tagwatch) finishCycle(rep *CycleReport) {
	tw.metricsMu.Lock()
	tw.metrics.Cycles++
	if rep.FellBack {
		tw.metrics.Fallbacks++
	}
	if rep.Err != nil {
		tw.metrics.CycleErrors++
	}
	tw.metrics.PhaseIReadings += uint64(len(rep.PhaseIReads))
	tw.metrics.PhaseIIReadings += uint64(len(rep.PhaseIIReads))
	tw.metrics.TargetsScheduled += uint64(len(rep.Targets))
	tw.metrics.MasksSelected += uint64(len(rep.Plan.Masks))
	tw.metrics.ScheduleCostTotal += rep.ScheduleCost
	tw.metricsMu.Unlock()

	// Housekeeping: forget departed tags. Skipped while the transport is
	// failing — a dead link is not evidence of departure, and pruning on
	// it would erase learned immobility models the reconnect still needs.
	if tw.cfg.DepartAfter > 0 && rep.Err == nil {
		cutoff := tw.dev.Now() - tw.cfg.DepartAfter
		tw.det.Prune(cutoff)
		tw.history.Prune(cutoff)
		for code, last := range tw.lastRestless {
			if last < cutoff {
				delete(tw.lastRestless, code)
			}
		}
	}
}

// ensureTable rebuilds the schedule index when the present population
// changed — the incremental-update step of §5.3's preprocessing. The
// population is sorted by epc.Compare, the order the table keeps.
func (tw *Tagwatch) ensureTable(population []epc.EPC) {
	if tw.table != nil && slices.Equal(population, tw.table.Population()) {
		return
	}
	t, err := schedule.NewIndexTable(tw.cfg.Schedule, population)
	if err != nil {
		tw.table = nil
		return
	}
	tw.table = t
}
