package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names every end-to-end metric with its unit, in report
// order. Every workload reports all of them. They are the metrics that
// do not scale with the machine's momentary speed; see timings.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"reading_age_p50_ms", "ms"},
	{"irr_gain", "ratio"},
	{"mover_recall", "ratio"},
	{"mover_precision", "ratio"},
	{"live_heap_mb", "MB"},
}

// timings are the user-visible speeds: throughput, CPU per reading,
// schedule cost and edge lag. On a shared 2-vCPU VM the machine's speed
// shifts by up to a third for minutes at a time, so across ten runs
// these spread by 15-50 %, more than any bound a regression gate can
// use; they are reported, measured untraced, among the per-layer
// metrics and carry no bound.
var timings = []struct{ name, unit string }{
	{"readings_per_s", "1/s"},
	{"cpu_us_per_reading", "us"},
	{"schedule_cost_p50_ms", "ms"},
	{"schedule_cost_p90_ms", "ms"},
	{"edge_lag_p50_ms", "ms"},
	{"edge_lag_p90_ms", "ms"},
}

// layers are the packages a CPU sample can be charged to, plus the
// garbage collector and everything else.
var layers = []string{
	"schedule", "core", "motion", "reader", "gen2", "rf", "scene", "aloha",
	"epc", "llrp", "fleet", "edge", "statestore", "guard", "gc", "other",
}

// perLayer names every per-layer metric with its unit. Every workload
// reports all of them in its traced run; a layer the workload never
// reaches reads 0.
var perLayer = func() []struct{ name, unit string } {
	out := append([]struct{ name, unit string }(nil), timings...)
	out = append(out, []struct{ name, unit string }{
		{"schedule.select_ms_p50", "ms"},
		{"schedule.table_ms_p50", "ms"},
		{"schedule.table_builds", "count"},
		{"schedule.masks_per_cycle", "count"},
		{"schedule.collateral_per_cycle", "count"},
		{"schedule.target_read_share", "ratio"},
		{"core.cycle_ms_p50", "ms"},
		{"core.fallback_share", "ratio"},
		{"core.targets_per_cycle", "count"},
		{"motion.tracked_tags", "count"},
		{"motion.restless_share", "ratio"},
		{"reader.slots_per_read", "ratio"},
		{"reader.collision_share", "ratio"},
		{"reader.rounds_per_cycle", "count"},
		{"llrp.bytes_per_reading", "B"},
		{"fleet.events_per_reading", "ratio"},
		{"fleet.bus_dropped_per_cycle", "count"},
		{"edge.sse_bytes_per_event", "B"},
		{"edge.resyncs_per_cycle", "count"},
		{"edge.gaps_reset", "count"},
		{"edge.contiguity_violations", "count"},
		{"statestore.bytes_written", "B"},
		{"runtime.allocs_per_reading", "count"},
		{"runtime.alloc_bytes_per_reading", "B"},
		{"runtime.idle_share", "ratio"},
	}...)
	for _, l := range layers {
		out = append(out, struct{ name, unit string }{l + ".cpu_ms", "ms"})
	}
	return out
}()

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string // where a traced run writes its spans
	// small shrinks the workload's scenes and dwells (tests).
	small bool
}

// run accumulates one workload run: its counts, metrics, checks and,
// when traced, its spans and CPU profile.
type run struct {
	opts     options
	start    time.Time
	e2e      map[string]metric
	layer    map[string]metric
	attempts int
	failures []string
	spans    *spanLog // nil when untraced
	digest   hash.Hash64
	profile  bytes.Buffer
}

func newRun(opts options) *run {
	r := &run{
		opts:   opts,
		start:  time.Now(),
		e2e:    map[string]metric{},
		layer:  map[string]metric{},
		digest: fnv.New64a(),
	}
	if opts.trace {
		r.spans = &spanLog{t0: r.start}
	}
	return r
}

// fail records one failed operation.
func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *run) setE2E(name string, v float64) {
	r.e2e[name] = metric{Value: v, Unit: unitOf(endToEnd, name)}
}

func (r *run) setLayer(name string, v float64) {
	r.layer[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
}

// setPercentile reports a percentile in milliseconds, or records the
// refusal as a failure when too few samples lie beyond it.
func (r *run) setPercentile(set func(string, float64), name string, v float64, err error) {
	if err != nil {
		r.fail("%s: %v", name, err)
		return
	}
	set(name, v/float64(time.Millisecond))
}

func unitOf(list []struct{ name, unit string }, name string) string {
	for _, m := range list {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown metric " + name)
}

// digestf folds virtual-time outputs (readings per cycle, plan masks)
// into the run's determinism digest.
func (r *run) digestf(format string, args ...any) {
	fmt.Fprintf(r.digest, format, args...)
}

// ratio divides, reading 0 when the base is 0 (a layer the workload
// never reaches).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// mark is a snapshot of the process's clocks and allocation counters at
// a phase boundary.
type mark struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func takeMark() mark {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail on a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measured reports the metrics every workload derives from its measured
// phase's boundaries and delivered readings.
func (r *run) measured(from, to mark, readings int) {
	wall := to.wall.Sub(from.wall)
	cpu := to.cpu - from.cpu
	r.setLayer("readings_per_s", ratio(float64(readings), wall.Seconds()))
	r.setLayer("cpu_us_per_reading", ratio(float64(cpu.Microseconds()), float64(readings)))
	r.setLayer("runtime.allocs_per_reading", ratio(float64(to.mallocs-from.mallocs), float64(readings)))
	r.setLayer("runtime.alloc_bytes_per_reading", ratio(float64(to.bytes-from.bytes), float64(readings)))
	r.setLayer("runtime.idle_share", 1-ratio(cpu.Seconds(), wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	if readings == 0 {
		r.fail("measured phase delivered no readings")
	}
}

// startProfile begins the traced run's CPU profile of the measured
// phase.
func (r *run) startProfile() error {
	if !r.opts.trace {
		return nil
	}
	return pprof.StartCPUProfile(&r.profile)
}

// stopProfile ends the CPU profile and charges its samples to layers.
func (r *run) stopProfile() error {
	if !r.opts.trace {
		return nil
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(r.profile.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	byLayer := attribute(stacks)
	var total, named time.Duration
	for _, l := range layers {
		d := byLayer[l]
		r.setLayer(l+".cpu_ms", float64(d)/float64(time.Millisecond))
		total += d
		if l != "other" {
			named += d
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: profile charged %.1f%% of %v CPU to named layers\n",
		100*ratio(float64(named), float64(total)), total.Round(time.Millisecond))
	return nil
}

// setup times repeated set-ups and reports their median as setup_s.
// build constructs one rig through its warm-up; all but the last rig
// (built with keep set) are closed again, and the last is returned for
// measurement.
func setup[T any](r *run, repeats int, build func(keep bool) (T, error), closeRig func(T)) (T, error) {
	times := make([]float64, 0, repeats)
	var rig T
	for i := 0; i < repeats; i++ {
		if i > 0 {
			closeRig(rig)
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if rig, err = build(i == repeats-1); err != nil {
			var zero T
			return zero, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	sort.Float64s(times)
	r.setE2E("setup_s", times[len(times)/2])
	return rig, nil
}

// finish checks that every metric was reported and assembles the result
// line (end-to-end metrics untraced, per-layer metrics traced).
func (r *run) finish() result {
	want, got := endToEnd, r.e2e
	if r.opts.trace {
		want, got = perLayer, r.layer
	}
	out := result{Metrics: map[string]metric{}, Attempted: r.attempts}
	missing := 0
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			missing++
			continue
		}
		out.Metrics[m.name] = v
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		r.fail("no operation attempted")
	}
	out.Failed = len(r.failures)
	if out.Failed > out.Attempted {
		out.Failed = out.Attempted
	}
	out.Correct = len(r.failures) == 0 && missing == 0
	return out
}

// span is one timed interval of the traced run.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent,omitempty"`
	Cycle  int    `json:"cycle"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A
// nil log (untraced run) records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
}

// add records a finished span and returns its id (0 when untraced).
func (l *spanLog) add(name string, parent, cycle int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Name: name, Parent: parent, Cycle: cycle,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
	})
	return id
}

// reserve allocates an id for a span whose end is not yet known, so
// children can name it as their parent; close fills it in.
func (l *spanLog) reserve(name string, parent, cycle int, start time.Time) int {
	return l.add(name, parent, cycle, start, start)
}

func (l *spanLog) close(id int, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = end.Sub(l.t0).Nanoseconds()
}

// merge appends another log's spans, renumbering them after this log's.
func (l *spanLog) merge(o *spanLog) {
	if l == nil || o == nil {
		return
	}
	off := len(l.spans)
	for _, sp := range o.spans {
		sp.ID += off
		if sp.Parent != 0 {
			sp.Parent += off
		}
		l.spans = append(l.spans, sp)
	}
}

// write stores the spans as JSON.
func (l *spanLog) write(path string) error {
	if l == nil || path == "" {
		return nil
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
